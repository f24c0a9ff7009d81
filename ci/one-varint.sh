#!/usr/bin/env bash
# Structural gate: LEB128 is read and written, and the lengths inside a
# frame are honoured, in crates/storage/src/varint.rs only. A frame's own
# length field is honoured in one other place, the framing reader
# (`scan_segment` in crates/storage/src/durable.rs): it reads the body
# through a reader bounded by that length, so a body the segment does not
# back is a short read, with no offset arithmetic. Fails if a private
# `put_u64` / `get_u64` copy, or a decoder indexing its input by hand
# (`pos + len`, `buf.get(pos..)`, `*pos += …`), grows back in
# crates/{storage,core}/src — every decoder there reads through
# `varint::Cursor`, whose `take` and `count` are the bounds checks. It
# also fails if a second byte format grows back in hc3i-core: there,
# `Cursor::new` (the start of every decode) appears in persist.rs only,
# the checkpoint entry bodies the segment log writes. Comment lines and
# everything from a file's first `#[cfg(test)]` on are not code a decoder
# runs, and are skipped.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Lines of non-test, non-comment code in the given files matching a regex.
code_matching() {
  PATTERN=$1 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    $0 ~ ENVIRON["PATTERN"] { print FILENAME ":" FNR ": " $0 }
  ' "${@:2}"
}
mapfile -d '' decoders < <(find crates/storage/src crates/core/src -name '*.rs' ! -path crates/storage/src/varint.rs -print0)
hits=$(code_matching 'fn (put|get)_u64[^A-Za-z0-9_]|(^|[^A-Za-z0-9_])pos[[:space:]]*(\+|\.\.)|\*pos[^A-Za-z0-9_]' "${decoders[@]}")
if [ -n "$hits" ]; then
  echo "a varint copy or hand-indexed decode outside storage::varint (use varint::{put_u64, Cursor}):"
  echo "$hits"
  exit 1
fi
mapfile -d '' core < <(find crates/core/src -name '*.rs' ! -path crates/core/src/persist.rs -print0)
hits=$(code_matching 'Cursor::new' "${core[@]}")
if [ -n "$hits" ]; then
  echo "a second byte format in hc3i-core (its one format is persist.rs's CheckpointCodec):"
  echo "$hits"
  exit 1
fi
echo "one varint: no put_u64/get_u64 copy and no pos arithmetic in crates/{storage,core}/src outside varint.rs"
echo "one format: Cursor::new in crates/core/src only in persist.rs"
