#!/usr/bin/env bash
# Lists every module under lib/ that no program code reaches: a module
# whose qualified name ("Mod.") appears in no lib/, bin/, bench/,
# perfbench/ or examples/ source other than its own .ml/.mli. Tests do not
# count as callers. Exits 1 when there is one, so code that only tests
# reach cannot accumulate unnoticed.
set -eu

sources=$(find lib bin bench perfbench examples -name '*.ml' -o -name '*.mli')
unreached=0
for ml in $(find lib -name '*.ml' | sort); do
  base=$(basename "$ml" .ml)
  mod="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  own="${ml%.ml}"
  if ! printf '%s\n' $sources | grep -v -x -F -e "$own.ml" -e "$own.mli" |
    xargs grep -q -e "\b$mod\."; then
    echo "unreached: $ml ($mod)"
    unreached=1
  fi
done
exit $unreached
