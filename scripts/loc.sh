#!/usr/bin/env bash
# The tracked code-size number (ROADMAP aim 2): per crate, the lines
# `scripts/code_lines.sh` prints — lines of `src/**/*.rs` that are
# neither blank nor comment-only, not counting test code (see that
# script for the rule).
#
#   scripts/loc.sh                 every crate under crates/
#   scripts/loc.sh sim net         only those crates, plus their total
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
  for d in crates/*/; do crates+=("$(basename "$d")"); done
fi

total=0
for c in "${crates[@]}"; do
  n=$(scripts/code_lines.sh "$c" | wc -l)
  printf '%-12s %6d\n' "$c" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
