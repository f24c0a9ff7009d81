#!/usr/bin/env bash
# Size of each crate's program and of its public surface.
#
# For every crate under crates/ it prints two counts over the .rs files
# under crates/<name>/src:
#   lines — non-test lines: every line of a file before its first
#           `#[cfg(test)]` (unit tests sit at the bottom of each file);
#   pub   — public item names declared in those lines: `pub fn`,
#           `pub struct`, `pub enum`, `pub trait`, `pub type`,
#           `pub const`, `pub static`, `pub mod`, methods included.
#           `pub(crate)`, `pub use` re-exports and fields are not items
#           of their own and are not counted.
# Usage: ci/loc.sh [TREE]        one table (TREE defaults to this checkout)
#        ci/loc.sh BASE TREE     both counts per crate, BASE then TREE, and
#                                TREE minus BASE; BASE is a directory or a
#                                git revision of this repository (read with
#                                `git archive` into a temporary directory)
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")/.."

# `crate lines pub` per crate of the tree in $1, then a `total` row.
count() (
  cd "$1"
  for dir in crates/*/; do
    name=$(basename "$dir")
    mapfile -d '' files < <(find "$dir/src" -name '*.rs' -print0 | sort -z)
    awk -v name="$name" '
      FNR == 1 { in_tests = 0 }
      /#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests { next }
      { lines++ }
      /^[[:space:]]*pub (unsafe |const |async )*(fn|struct|enum|trait|type|const|static|mod|union) / { items++ }
      END { printf "%s %d %d\n", name, lines, items }
    ' "${files[@]}"
  done | awk '{ print; lines += $2; items += $3 } END { printf "total %d %d\n", lines, items }'
)

if [ $# -le 1 ]; then
  printf '%-12s %7s %5s\n' crate lines pub
  count "${1:-$here}" | awk '{ printf "%-12s %7d %5d\n", $1, $2, $3 }'
  exit 0
fi

base=$1
tree=$2
if [ ! -d "$base" ]; then
  scratch=$(mktemp -d)
  trap 'rm -rf "$scratch"' EXIT
  git -C "$here" archive "$base" crates | tar -x -C "$scratch"
  base=$scratch
fi
# A crate only one side has counts 0 on the other.
{ count "$base" | sed 's/^/base /'; count "$tree" | sed 's/^/tree /'; } | awk '
  { if (!($2 in seen)) { seen[$2] = 1; order[n++] = $2 }
    lines[$1, $2] = $3; items[$1, $2] = $4 }
  END {
    printf "%-12s %7s %7s %7s %5s %5s %5s\n", "crate", "lines", "", "delta", "pub", "", "delta"
    for (i = 0; i < n; i++) {
      c = order[i]
      printf "%-12s %7d %7d %+7d %5d %5d %+5d\n", c, lines["base", c], lines["tree", c],
        lines["tree", c] - lines["base", c], items["base", c], items["tree", c],
        items["tree", c] - items["base", c]
    }
  }'
