#!/usr/bin/env bash
# The perf gate: alternating fresh-process pairs of a parent tree and a
# change tree on the benchmark (bench/ABLATIONS.md, "The rule").
#
#   ci/pair.sh <parent-tree> <change-tree> [--pairs N] [--workload W]...
#   ci/pair.sh --self-test
#
# Builds both trees (each through its own benchmark/run.sh, into its own
# benchmark/target), then per workload takes N pairs (default 10) of
# `benchmark/run.sh --workload W --seconds S --trace 0`, alternating which
# side goes first, and folds each run's last stdout line into a markdown
# table, every raw value and a stamp, on stdout. Workloads, S, metric
# names, directions and bounds are BENCHMARK.json's; this file adds no
# number of its own. Per (workload, metric), medians and quartiles over the
# runs of a side:
#   regressed   change worse than parent by more than `bound`, and the
#               parent's IQR / median within `bound`
#   unresolved  worse by more than `bound`, but the parent's own spread is
#               wider than `bound` (every change run beating every parent
#               run cannot coincide with a worse median)
#   better      change better in >= 9/10 of the pairs (ties count for
#               neither) and the medians apart by more than the parent's IQR
#   worse       the mirror image, inside the bound
#   unchanged   everything else
# Exit 1 iff a pairing is regressed, a run says "correct": false, or
# failed/attempted is higher on the change side. If benchmark/ or
# BENCHMARK.json differ between the trees there is nothing to pair: a
# [benchmark] PR claims no gain and is re-baselined after it lands.
set -euo pipefail

# fold BENCHMARK.json RUNS: RUNS holds one `side<TAB>workload<TAB>result
# object` line per run, pairs in order. `fold --self-test` checks the rule.
fold() {
  python3 - "$@" <<'PY'
import json, statistics, sys

def quartiles(v):
    return statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3

def pct(x, fmt=".1%"):
    return format(x, fmt).replace("%", " %")

def judge(p, c, lower, bound):
    """(verdict, table cells) for one metric's parent and change runs."""
    sign = 1 if lower else -1  # sign * (change - parent) > 0: change is worse
    wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    losses = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    n, (q1, mp, q3), (c1, mc, c3) = len(p), quartiles(p), quartiles(c)
    worse_by, apart, spread = sign * (mc - mp) / mp, abs(mc - mp) > q3 - q1, (q3 - q1) / mp
    if worse_by > bound:
        verdict = "regressed" if spread <= bound else "unresolved"
    elif 10 * wins >= 9 * n and apart and worse_by < 0:
        verdict = "better"
    elif 10 * losses >= 9 * n and apart and worse_by > 0:
        verdict = "worse"
    else:
        verdict = "unchanged"
    ties = n - wins - losses
    return verdict, [
        f"{mp:.4g} [{q1:.4g}, {q3:.4g}]", f"{mc:.4g} [{c1:.4g}, {c3:.4g}]",
        f"{wins}/{n}" + (f" ({ties} tie{'s' * (ties > 1)})" if ties else ""),
        pct((mc - mp) / mp, "+.1%"), pct(spread), verdict]

def fold(bench, lines):
    """(markdown, exit code) for tab-separated run lines."""
    runs = {}
    for line in lines:
        side, workload, result = line.rstrip("\n").split("\t", 2)
        runs.setdefault(workload, {"parent": [], "change": []})[side].append(json.loads(result))
    out = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] | change better in"
           " | delta of medians | parent IQR / median | verdict |", "|---|---|---|---|---:|---:|---:|---|"]
    listed, raw, failing = [], [], []
    for w, sides in runs.items():
        share = {}
        for side, rs in sides.items():
            if not all(r["correct"] for r in rs):
                failing.append(f'`{w}`: a {side} run says "correct": false')
            share[side] = (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
        (pf, pa), (cf, ca) = share["parent"], share["change"]
        if cf * pa > pf * ca:
            failing.append(f"`{w}`: failed/attempted rose, {pf}/{pa} -> {cf}/{ca}")
        raw.append(f"`{w}` failed/attempted — parent: {pf}/{pa}; change: {cf}/{ca}")
        for m in bench["end_to_end"]:
            p, c = ([r["metrics"][m["name"]]["value"] for r in sides[s]] for s in ("parent", "change"))
            verdict, cells = judge(p, c, m["better"] == "lower", m["bound"])
            out.append(f"| `{w}` | `{m['name']}` | " + " | ".join(cells) + " |")
            if verdict not in ("unchanged", "better"):
                listed.append(f"**{verdict}**: `{w}` `{m['name']}` {cells[2]}, {cells[3]}"
                              f" (bound {pct(m['bound'], '.0%')}; parent IQR / median {cells[4]})")
            if verdict == "regressed":
                failing.append(listed[-1])
            raw.append(f"`{w}` `{m['name']}` by pair — parent: " + " ".join(f"{x:.5g}" for x in p)
                       + "; change: " + " ".join(f"{x:.5g}" for x in c))
    out += [""] + (listed or ["Nothing worse, unresolved or regressed."]) + [""] + raw + [""]
    out += [f"GATE FAILS: {f}" for f in failing] or ["Gate passes."]
    return "\n".join(out), 1 if failing else 0

def self_test():
    bench = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    def case(parent, change, correct=True, failed=0):
        lines = []
        for a, b in zip(parent, change):
            for side, x, ok, f in (("parent", a, True, 0), ("change", b, correct, failed)):
                lines.append(f"{side}\tw\t" + json.dumps({"correct": ok, "attempted": 100, "failed": f,
                             "metrics": {"wall_s": {"value": x, "unit": "s"}}}))
        text, code = fold(bench, lines)
        row = text.splitlines()[2].split(" | ")
        return row[-1].rstrip(" |"), row[4], code, text
    quiet = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.03, 0.97]  # IQR 2 %
    noisy = [1.00, 1.30, 0.75, 1.20, 0.80, 1.20, 0.80, 1.25, 0.70, 1.00]  # IQR 40 %
    flat = [50.2] * 10  # IQR 0 %, as peak_rss_mb reads: any consistent move is apart
    std_channel = ([0.513, 0.515, 0.538, 0.526, 0.532, 0.506, 0.513, 0.514, 0.527, 0.517],
                   [0.601, 0.597, 0.613, 0.586, 0.610, 0.624, 0.602, 0.609, 0.620, 0.609])
    for name, (verdict, wins, code, text), want in [
        ("better", case(quiet, [x * 0.8 for x in quiet]), ("better", "10/10", 0)),
        ("worse inside the bound", case(*std_channel), ("worse", "0/10", 0)),
        ("regressed", case(quiet, [x * 1.3 for x in quiet]), ("regressed", "0/10", 1)),
        ("unresolved", case(noisy, [x * 1.3 for x in noisy]), ("unresolved", "0/10", 0)),
        ("worse at zero spread", case(flat, [x * 1.001 for x in flat]), ("worse", "0/10", 0)),
        ("unchanged", case(quiet, quiet[::-1]), ("unchanged", "4/10 (2 ties)", 0)),
        ("ties count for neither", case(quiet, quiet[:8] + [0.5, 0.5]), ("unchanged", "2/10 (8 ties)", 0)),
        ("a \"correct\": false run", case(quiet, quiet, correct=False), ("unchanged", "0/10 (10 ties)", 1)),
        ("a raised fail share", case(quiet, quiet, failed=1), ("unchanged", "0/10 (10 ties)", 1)),
    ]:
        assert (verdict, wins, code) == want, f"{name}: got {(verdict, wins, code)}, want {want}\n{text}"
        assert (verdict in ("worse", "unresolved", "regressed")) == (f"**{verdict}**" in text), name
    assert "+18.0 %" in case(*std_channel)[3], "delta of medians"
    print("pair.sh fold self-test: 9 cases pass")

if sys.argv[1] == "--self-test":
    self_test()
else:
    text, code = fold(json.load(open(sys.argv[1])), open(sys.argv[2]))
    print(text)
    sys.exit(code)
PY
}

usage() { sed -n '2,6p' "$0" >&2; exit 2; }
commit_of() { # a tree's commit and dirty flag
  git -C "$1" rev-parse --short HEAD 2>/dev/null | tr -d '\n' || { echo "not a git checkout"; return; }
  [ -z "$(git -C "$1" status --porcelain 2>/dev/null)" ] && echo " (clean)" || echo " (dirty)"
}

pairs=10 workloads=() trees=()
while [ $# -gt 0 ]; do
  case "$1" in
    --self-test)
      fold --self-test
      tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT
      mkdir -p "$tmp/a/benchmark" "$tmp/b/benchmark"
      echo '{}' | tee "$tmp/a/BENCHMARK.json" "$tmp/b/BENCHMARK.json" > "$tmp/a/benchmark/run.sh"
      echo changed > "$tmp/b/benchmark/run.sh"
      "$0" "$tmp/a" "$tmp/b" | grep -q "differ between the trees" ||
        { echo "self-test: differing benchmark/ trees must exit 0 with the notice" >&2; exit 1; }
      echo "pair.sh self-test: differing benchmark/ trees exit 0 with the notice"
      exit 0 ;;
    --pairs) pairs=${2:?--pairs needs a count}; shift 2 ;;
    --workload) workloads+=("${2:?--workload needs a name}"); shift 2 ;;
    -*) usage ;;
    *) trees+=("$(cd "$1" && pwd)"); shift ;;
  esac
done
[ ${#trees[@]} -eq 2 ] || usage
parent=${trees[0]} change=${trees[1]}
for t in "${trees[@]}"; do [ -f "$t/benchmark/run.sh" ] || { echo "$t: no benchmark/run.sh" >&2; exit 2; }; done

if ! diff -rq -x target -x out "$parent/benchmark" "$change/benchmark" >&2 ||
   ! cmp "$parent/BENCHMARK.json" "$change/BENCHMARK.json" >&2; then
  echo "benchmark/ or BENCHMARK.json differ between the trees: a [benchmark] change, which claims no gain and is re-baselined after it lands. No pairs taken, no verdicts."
  exit 0
fi

# Each side builds into its own benchmark/target, before the first timed run.
harness() { local tree=$1; shift; env -u CARGO_TARGET_DIR bash "$tree/benchmark/run.sh" "$@"; }
for tree in "$parent" "$change"; do
  echo "building $tree …" >&2
  harness "$tree" --print-benchmark-json > /dev/null
done
read -r seconds all <<< "$(python3 -c 'import json, sys; b = json.load(open(sys.argv[1]))
print(b["run_seconds"], *[w["name"] for w in b["workloads"]])' "$change/BENCHMARK.json")"
[ ${#workloads[@]} -gt 0 ] || read -ra workloads <<< "$all"

runs=$(mktemp) && trap 'rm -f "$runs"' EXIT
run() { # side tree workload
  printf '%s\t%s\t' "$1" "$3" >> "$runs"
  harness "$2" --workload "$3" --seconds "$seconds" --trace 0 | tail -n 1 >> "$runs"
}
for w in "${workloads[@]}"; do
  for i in $(seq "$pairs"); do
    echo "$w: pair $i/$pairs" >&2
    if ((i % 2)); then run parent "$parent" "$w"; run change "$change" "$w"
    else run change "$change" "$w"; run parent "$parent" "$w"; fi
  done
done

code=0; fold "$change/BENCHMARK.json" "$runs" || code=$?
cat <<EOF

Stamp: parent \`$(commit_of "$parent")\`, change \`$(commit_of "$change")\`; $pairs alternating pairs of \`benchmark/run.sh --workload W --seconds $seconds --trace 0\`, fresh process each; \`nproc\` $(nproc), $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | xargs); kernel \`$(uname -r)\`; \`$(rustc --version)\`; $(date -u +%F).
EOF
exit $code
