#!/usr/bin/env bash
# The tracked code-size number (ROADMAP aim 2): per crate, lines of
# `src/**/*.rs` that are neither blank nor comment-only, not counting
# test code. Test code is
#   * the item a `#[cfg(test)]` attribute is on: a one-line `use`/`mod x;`
#     or a braced item such as `mod tests { ... }`, to its closing brace;
#   * every file a `#[cfg(test)] mod x;` pulls in (`x.rs` or `x/mod.rs`).
# `tests/` and `benches/` are outside `src/` and so are not counted either.
# Braces are counted per line, without parsing strings or comments.
#
#   scripts/loc.sh                 every crate under crates/
#   scripts/loc.sh sim net         only those crates, plus their total
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
  for d in crates/*/; do crates+=("$(basename "$d")"); done
fi

# Prints the files `#[cfg(test)] mod x;` declarations in "$@" pull in.
test_only_files() {
  awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { want = 1; next }
    want && match($0, /^[[:space:]]*(pub[^ ]* )?mod [A-Za-z0-9_]+;/) {
      name = $0
      sub(/^[[:space:]]*(pub[^ ]* )?mod /, "", name)
      sub(/;.*/, "", name)
      dir = FILENAME
      sub(/\/[^\/]*$/, "", dir)
      if (FILENAME !~ /\/(lib|main|mod)\.rs$/) {
        stem = FILENAME
        sub(/\.rs$/, "", stem)
        dir = stem
      }
      print dir "/" name ".rs"
      print dir "/" name "/mod.rs"
    }
    { want = 0 }
  ' "$@"
}

total=0
for c in "${crates[@]}"; do
  mapfile -t all < <(find "crates/$c/src" -name '*.rs' | sort)
  mapfile -t skip < <(test_only_files "${all[@]}")
  files=()
  for f in "${all[@]}"; do
    [[ " ${skip[*]} " == *" $f "* ]] || files+=("$f")
  done
  n=$(awk '
    function braces(s,   o, cl) {
      o = gsub(/\{/, "{", s); cl = gsub(/\}/, "}", s); return o - cl
    }
    FNR == 1 { attr = 0; item = 0 }
    item {
      depth += braces($0)
      if (depth > 0) opened = 1
      if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) item = 0
      next
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { attr = 1; next }
    attr && /^[[:space:]]*#\[/ { next }
    attr {
      attr = 0
      depth = braces($0); opened = depth > 0
      # Skip on past this line unless the item ends on it.
      item = opened || !($0 ~ /;[[:space:]]*$/ || $0 ~ /\{.*\}/)
      next
    }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n + 0 }
  ' "${files[@]}")
  printf '%-12s %6d\n' "$c" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
