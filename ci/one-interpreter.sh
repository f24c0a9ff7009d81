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
#
# One owner of fail-stop state: the engine counts its own failures
# (`NodeEngine::failure_generation`), so a host that stores generations,
# a failed flag or a table of atomics per node, derives a generation from
# `is_failed()`, or compares `is_failed()` with a stored copy, keeps a
# mirror that can drift from the engine.
#
# The transport comes with the loss: the simulator's world builds the
# reliable transport exactly when its hostile spec can drop a copy, and
# the runtime's channels never drop one, so `XportConfig` or
# `with_reliable_transport` in the simulator's config, the runtime or the
# campaign is the transport growing back as a setting.
#
# The runtime's unit is the cluster: a shard keeps one record per cluster
# it homes (its slots, its CLC timer, its probe), and pings and stops
# whole shards. A `stopped`, `clc_delay` or `clc_deadline` field in
# `NodeCell`, a `timer_slots` list, a `live` node count, or a `Ping` or
# `Shutdown` sent inside a loop over `ids()` is per-node control state
# growing back in crates/runtime/src.
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
hits=$(code_matching 'generations?[[:space:]]*:[^:]|_failed[[:space:]]*:|Vec<Atomic|is_failed[(][)][[:space:]]*[!=]=|[!=]=[^;]*is_failed[(][)]|published_failed|::from[(][^)]*is_failed' \
  crates/simdriver/src crates/runtime/src crates/core/src/testkit.rs)
if [ -n "$hits" ]; then
  echo "host code keeps fail-stop state of its own; read the engine's failure_generation() / is_failed():"
  echo "$hits"
  status=1
fi
hits=$(code_matching 'XportConfig|with_reliable_transport' \
  crates/simdriver/src/config.rs crates/runtime/src crates/campaign/src)
if [ -n "$hits" ]; then
  echo "the reliable transport is a setting again; the simulator runs it exactly when its hostile spec has loss > 0:"
  echo "$hits"
  status=1
fi
hits=$(
  code_matching 'timer_slots|self[.]live([^A-Za-z0-9_]|$)|^[[:space:]]*(pub(\(crate\))?[[:space:]]+)?live[[:space:]]*:' \
    crates/runtime/src
  find crates/runtime/src -name '*.rs' -print0 |
    xargs -0 awk '
      FNR == 1 { in_tests = 0; cell = 0; loop = 0 }
      /#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests || /^[[:space:]]*\/\// { next }
      /struct NodeCell[^A-Za-z0-9_]/ { cell = 1 }
      cell && /(stopped|clc_delay|clc_deadline)[[:space:]]*:/ { print FILENAME ":" FNR ": " $0 }
      cell && /^}/ { cell = 0 }
      !loop && (/for .* in .*ids[(][)]/ || /ids[(][)][.](for_each|map|filter)/) { loop = 1; depth = 0; opened = 0 }
      loop {
        if ($0 ~ /Envelope::(Ping|Shutdown)/) print FILENAME ":" FNR ": " $0
        line = $0
        opens = gsub(/[{(]/, "", line)
        closes = gsub(/[})]/, "", line)
        depth += opens - closes
        if (opens > 0) opened = 1
        if (opened && depth <= 0) loop = 0
      }
    '
)
if [ -n "$hits" ]; then
  echo "the runtime keeps per-node control state; a shard keeps one record per cluster it homes and pings and stops whole shards:"
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
echo "one owner of fail-stop state: no stored failure generation, failed flag or health table, and no is_failed() mirror check, in simdriver, runtime or testkit"
echo "the transport comes with the loss: no XportConfig or with_reliable_transport in simdriver's config, runtime or campaign"
echo "the runtime's unit is the cluster: no stopped/clc_delay/clc_deadline in NodeCell, no timer_slots, no live node count, no Ping or Shutdown sent per node in runtime"
