#!/usr/bin/env bash
# Structural gate: engine outputs are interpreted, and reliable-transport
# frames built and taken apart, in crates/core/src/host.rs only (node.rs
# emits them). Fails if a `match` on `Output` or handling of
# `Msg::Reliable` / `Msg::XportAck` grows back in a host — or a host
# builds its own fault report (`Input::DetectFaults`; the one rule is
# host::FaultReports) or tracks a coordinator of its own
# (`coordinator_rank`; ProtocolConfig::coordinator is the one answer).
# Comment lines and everything from a file's first `#[cfg(test)]` on are
# not code a host runs, and are skipped.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
hits=$(find crates/simdriver/src crates/runtime/src crates/core/src/testkit.rs -name '*.rs' -print0 |
  xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    /Output::|Msg::Reliable|Msg::XportAck|Input::DetectFaults|coordinator_rank/ { print FILENAME ":" FNR ": " $0 }
  ')
if [ -n "$hits" ]; then
  echo "host code decides what hc3i_core::host decides (interpreter, transport frames, fault reports, coordinator):"
  echo "$hits"
  exit 1
fi
echo "one interpreter: no Output:: / Msg::Reliable / Msg::XportAck / Input::DetectFaults / coordinator_rank in simdriver, runtime or testkit"
