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
# Usage: ci/loc.sh [TREE]   (TREE defaults to this checkout)
set -euo pipefail
tree=${1:-"$(dirname "${BASH_SOURCE[0]}")/.."}
cd "$tree"
printf '%-12s %7s %5s\n' crate lines pub
for dir in crates/*/; do
  name=$(basename "$dir")
  mapfile -d '' files < <(find "$dir/src" -name '*.rs' -print0 | sort -z)
  awk -v name="$name" '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    { lines++ }
    /^[[:space:]]*pub (unsafe |const |async )*(fn|struct|enum|trait|type|const|static|mod|union) / { items++ }
    END { printf "%-12s %7d %5d\n", name, lines, items }
  ' "${files[@]}"
done | awk '{ print; lines += $2; items += $3 } END { printf "%-12s %7d %5d\n", "total", lines, items }'
