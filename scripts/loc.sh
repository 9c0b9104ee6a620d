#!/usr/bin/env bash
# The tracked code-size number (ROADMAP aim 2): per crate, lines of
# `src/**/*.rs` that are neither blank nor comment-only, not counting
# `#[cfg(test)]` modules (every one in this workspace, indented or not,
# runs from its attribute to the end of its file). `tests/` and
# `benches/` are outside `src/` and so are not counted either.
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
  n=$(find "crates/$c/src" -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }
  ')
  printf '%-12s %6d\n' "$c" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
