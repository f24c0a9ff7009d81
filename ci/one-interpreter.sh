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
#
# One way into an engine: a host hands every input to host::input, which
# terminates transport frames, calls `NodeEngine::handle` and interprets
# the outputs; a host calling `handle` itself is a second entry point.
# (`perform` and `receive` are private, so the compiler stops the rest.)
# Inside host.rs too, `input` is the one function that calls `handle`:
# the interpreter carries effects out and never re-enters the engine.
#
# The engine says what happened: it pushes every ProtoEvent finished, so
# host.rs's code names no variant but `Delivered` (which it emits once the
# application has the payload) — a second one is a translation arm.
#
# Also one window into a run: the simulator's world records typed trace
# records and `simdriver::trace::render` formats them, so a `format!(` in
# world.rs's code is a second trace path; and the report fold lives in
# hc3i-core, so the runtime never depends on the simulator.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
code_matching() {
  local pattern=$1
  shift
  find "$@" -name '*.rs' -print0 |
    xargs -0 awk -v pattern="$pattern" '
      FNR == 1 { in_tests = 0 }
      /#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests || /^[[:space:]]*\/\// { next }
      $0 ~ pattern { print FILENAME ":" FNR ": " $0 }
    '
}
status=0
hits=$(code_matching 'Output::|Msg::Reliable|Msg::XportAck|Input::DetectFaults|coordinator_rank' \
  crates/simdriver/src crates/runtime/src crates/core/src/testkit.rs)
if [ -n "$hits" ]; then
  echo "host code decides what hc3i_core::host decides (interpreter, transport frames, fault reports, coordinator):"
  echo "$hits"
  status=1
fi
hits=$(code_matching '[.]handle[(]|NodeEngine::handle' \
  crates/simdriver/src crates/runtime/src crates/core/src/testkit.rs)
if [ -n "$hits" ]; then
  echo "host code calls NodeEngine::handle itself; feed the engine through hc3i_core::host::input:"
  echo "$hits"
  status=1
fi
hits=$(awk '
  /#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  match($0, /fn [A-Za-z_][A-Za-z0-9_]*/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  /[.]handle[(]/ && fn != "input" { print FILENAME ":" FNR ": " $0 }
' crates/core/src/host.rs)
if [ -n "$hits" ]; then
  echo "host.rs calls NodeEngine::handle outside host::input, a second way into the engine:"
  echo "$hits"
  status=1
fi
hits=$(code_matching 'ProtoEvent::' crates/core/src/host.rs |
  awk '{ line = $0 " "; gsub(/ProtoEvent::Delivered[^A-Za-z0-9_]/, "", line) } line ~ /ProtoEvent::/')
if [ -n "$hits" ]; then
  echo "host.rs builds a ProtoEvent the engine should push finished (only Delivered is the interpreter's):"
  echo "$hits"
  status=1
fi
hits=$(code_matching 'format![(]' crates/simdriver/src/world.rs)
if [ -n "$hits" ]; then
  echo "the world formats a trace line; record a simdriver::TraceEvent and let trace::render format it:"
  echo "$hits"
  status=1
fi
if grep -n 'simdriver' crates/runtime/Cargo.toml; then
  echo "crates/runtime depends on the simulator; RunReport and its fold live in hc3i-core"
  status=1
fi
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
echo "one interpreter: no Output:: / Msg::Reliable / Msg::XportAck / Input::DetectFaults / coordinator_rank in simdriver, runtime or testkit"
echo "one entry point: no NodeEngine::handle call in simdriver, runtime or testkit, nor in host.rs outside host::input"
echo "one vocabulary: host.rs's code names no ProtoEvent but Delivered"
echo "one window: no format!( in simdriver's world, no simdriver in runtime's manifest"
