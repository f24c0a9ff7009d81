#!/usr/bin/env bash
# Structural gate: the protocol engine, its store and the threaded
# runtime link no simulator. `cargo tree -e normal` (build-time and
# dev-dependencies excluded) of hc3i-core, storage and runtime must not
# list the discrete-event executive (desim), the network model (netsim)
# or the simulators' random-number crate (rand). Time, ids, message
# classes and the hasher they share with the simulators come from the
# std-only leaf crate hc3i-types.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
failed=0
for pkg in hc3i-core storage runtime; do
  tree=$(cargo tree -e normal --offline --prefix none -p "$pkg")
  hits=$(awk '{ print $1 }' <<<"$tree" | grep -Ex 'desim|netsim|rand' | sort -u || true)
  if [ -n "$hits" ]; then
    echo "$pkg links a simulator crate: $(tr '\n' ' ' <<<"$hits")"
    echo "$tree" | sed 's/^/  /'
    failed=1
  fi
done
[ "$failed" -eq 0 ] || exit 1
echo "engine deps: hc3i-core, storage and runtime link none of desim, netsim, rand"
