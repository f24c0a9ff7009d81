#!/usr/bin/env bash
# The mutant yardstick: what the checks catch (ROADMAP item 16).
#
#   ci/mutants.sh
#   ci/mutants.sh --check
#
# Reads ci/mutants.tsv: one mutant a line, five tab-separated fields —
# name, file, pattern, replacement, rule. Every pattern must occur exactly
# once in its file, or the script fails before it builds anything, so a
# refactor that moves a pattern carries the list along; `--check` stops
# there. The tree (tracked and untracked files, not ignored ones) is copied
# to one scratch directory under $TMPDIR, and each mutant is applied there
# in turn and undone after — never in this tree, which the script checks
# it leaves as it found it. In the copy, first unmutated (the baseline),
# then under each mutant:
#   tier-1     `cargo build --release`, then `cargo test --no-fail-fast`
#              (libtest quiet, cargo's status lines kept so a failing test
#              names its binary)
#   campaign   `hc3i-sim campaign --seeds 1..=40`
# Each test binary of tier-1 runs under coreutils `timeout` (cargo's
# target runner): one that has not exited after `limit` seconds (300,
# ~60 times the slowest binary's unmutated run) is stopped (SIGTERM, then
# SIGKILL 10 s later) and counts as a failed target that `timed out`,
# named in the mutant's row; the rest of tier-1 still runs. A hang costs
# a mutant five minutes, not the CI job's ninety.
# A check kills a mutant when it fails a test, a test target or a cell
# that it does not fail on the baseline; the baseline's own failures (the
# seed-16 cell of ROADMAP item 1(a)) are subtracted. A copy that does not
# build counts as killed by the compiler. Prints the kill matrix as
# markdown, with a stamp, on stdout, and under it the captured output
# (`---- name stdout ----`) of every test the baseline fails, so a flaky
# baseline failure names its assertion; progress goes to stderr. Exits 1
# on a bad list, a baseline that does not build or a tree left changed,
# and not on a surviving mutant: survivors are what the matrix reports.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD list=ci/mutants.tsv seeds=1..=40 check=0 limit=300
case "${1-}:$#" in
  :0) ;;
  --check:1) check=1 ;;
  *) echo "usage: ci/mutants.sh [--check]" >&2; exit 2 ;;
esac

# mutants TREE [NAME]: check every pattern of the list occurs exactly once
# in TREE (exit 1 if not) and print `name<TAB>file` per mutant; with NAME,
# also apply that mutant in TREE.
mutants() {
  python3 - "$list" "$@" <<'PY'
import sys
lst, tree, name = sys.argv[1], sys.argv[2], (sys.argv[3:] or [None])[0]
bad = 0
for n, line in enumerate(open(lst), 1):
    if not line.strip() or line.startswith("#"):
        continue
    row = line.rstrip("\n").split("\t")
    if len(row) != 5:
        print(f"{lst}:{n}: {len(row)} fields, not 5", file=sys.stderr)
        bad = 1
        continue
    mutant, path, pattern, replacement, _rule = row
    text = open(f"{tree}/{path}").read()
    if (k := text.count(pattern)) != 1:
        print(f"{mutant}: the pattern occurs {k} times in {path}, not once: {pattern}", file=sys.stderr)
        bad = 1
    elif mutant == name:
        open(f"{tree}/{path}", "w").write(text.replace(pattern, replacement))
    print(f"{mutant}\t{path}")
sys.exit(bad)
PY
}

snapshot() { git status --porcelain && git diff HEAD --binary | sha1sum; }

table=$(mutants "$root")
echo "$(wc -l <<< "$table") mutants, each pattern found exactly once" >&2
[ "$check" -eq 0 ] || exit 0
before=$(snapshot)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
copy=$work/tree
mkdir "$copy"
git ls-files -z -co --exclude-standard | tar --null -T - --ignore-failed-read -cf - | tar -xf - -C "$copy"

# Every test binary runs through $work/run-test, cargo's runner for the
# host target: under `timeout`, and when the limit stops it (exit status
# 124, or 137 after SIGKILL) the runner says so in the log, which cargo
# does not under --no-fail-fast.
cat > "$work/run-test" <<EOF
#!/usr/bin/env bash
timeout --kill-after=10 $limit "\$@"
status=\$?
case \$status in 124 | 137) echo "mutants.sh: timed out after $limit s: \$1" >&2 ;; esac
exit \$status
EOF
chmod +x "$work/run-test"
host=$(rustc -vV | sed -n 's/^host: //p')
export "CARGO_TARGET_$(tr 'a-z-' 'A-Z_' <<< "$host")_RUNNER=$work/run-test"

# score LABEL: run both checks in the copy; LABEL.tests gets one failing
# test or test target a line (a target that timed out ends in
# ` timed out`), LABEL.failures the captured output of the failing tests,
# LABEL.cells one failing cell a line and LABEL.total the campaign's cell
# count. A copy that does not build writes `build` to LABEL.tests.
score() {
  local out=$work/$1
  : > "$out.tests" && : > "$out.failures" && : > "$out.cells" && echo 0 > "$out.total"
  if ! (cd "$copy" && cargo build --release -q) > "$out.build.log" 2>&1 ||
    ! (cd "$copy" && cargo test --no-run -q) >> "$out.build.log" 2>&1; then
    echo build > "$out.tests"
    return
  fi
  (cd "$copy" && cargo test --no-fail-fast -- --quiet) > "$out.test.log" 2>&1 || true
  python3 - "$out.test.log" "$out.failures" > "$out.tests" <<'PY'
import re, sys
binary, block, failed, timed_out = "?", None, set(), False
captured, name = open(sys.argv[2], "w"), None
for line in open(sys.argv[1], errors="replace"):
    line = line.rstrip("\n")
    if m := re.match(r"\s+Running \S+(?: \S+)? \((?:.*/)?(.+?)(?:-[0-9a-f]{16})?\)$", line):
        binary, name = m.group(1), None
    elif m := re.match(r"\s+Doc-tests (\S+)$", line):
        binary, name = "doc:" + m.group(1), None
    elif m := re.match(r"---- (.+?) stdout ----$", line):
        name = f"{binary}::{m.group(1)}"
        captured.write(f"{name}\t{line}\n")
    elif line == "failures:":
        block, name = [], None  # the last block before `test result:` lists the names
    elif line.startswith("test result:"):
        failed.update(f"{binary}::{n}" for n in block or [])
        block = None
    elif block is not None and (m := re.match(r"    (\S.*)$", line)):
        block.append(m.group(1))
    elif line.startswith("mutants.sh: timed out after "):
        timed_out, name = True, None  # cargo names the target next
    elif m := re.search(r"to rerun pass `(.+)`", line):
        failed.add(f"target {m.group(1)}" + (" timed out" if timed_out else ""))
        timed_out, name = False, None
    elif name:
        captured.write(f"{name}\t{line}\n")
print("\n".join(sorted(failed)))
PY
  sed -i '/^$/d' "$out.tests"
  (cd "$copy" && ./target/release/hc3i-sim campaign --seeds "$seeds") > "$out.campaign.log" 2>&1 || true
  awk '$1 == "FAIL" { print $2 " " $3 " seed " $5 }' "$out.campaign.log" > "$out.cells"
  awk '/^campaign passed:/ { print $3 } /^campaign FAILED:/ { split($3, a, "/"); print a[2] }' \
    "$out.campaign.log" > "$out.total"
  [ -s "$out.total" ] || { echo "campaign did not finish" > "$out.cells"; echo 0 > "$out.total"; }
}

echo "baseline: build, tier-1, campaign --seeds $seeds" >&2
score baseline < /dev/null
if [ "$(cat "$work/baseline.tests")" = build ]; then
  echo "the unmutated tree does not build:" >&2
  tail -20 "$work/baseline.build.log" >&2
  exit 1
fi
names=()
mapfile -t rows <<< "$table"
for row in "${rows[@]}"; do
  name=${row%%$'\t'*} path=${row#*$'\t'}
  names+=("$name")
  echo "$name: apply in the copy, build, tier-1, campaign" >&2
  cp "$copy/$path" "$work/pristine"
  mutants "$copy" "$name" > /dev/null
  score "$name" < /dev/null
  cp "$work/pristine" "$copy/$path"
done

after=$(snapshot)
if [ "$before" != "$after" ]; then
  echo "the tree changed while the mutants ran; they belong in the scratch copy only" >&2
  exit 1
fi

python3 - "$work" "$list" "$seeds" "${names[@]}" <<'PY'
import sys
work, lst, seeds, names = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
rules = {}
for line in open(lst):
    if line.strip() and not line.startswith("#"):
        row = line.rstrip("\n").split("\t")
        rules[row[0]] = row[4]
def lines(label, kind):
    return [l for l in open(f"{work}/{label}.{kind}").read().splitlines() if l]
base_tests, base_cells = set(lines("baseline", "tests")), set(lines("baseline", "cells"))
total = open(f"{work}/baseline.total").read().strip()
print(f"| mutant | rule | tier-1 failures | campaign cells (of {total}) | killed by |")
print("|---|---|---:|---:|---|")
details, killed = [], 0
for n in names:
    tests = lines(n, "tests")
    if tests == ["build"]:
        print(f"| {n} | {rules[n]} | — | — | the compiler |")
        killed += 1
        continue
    new_tests = sorted(set(tests) - base_tests)
    new_cells = sorted(set(lines(n, "cells")) - base_cells)
    # A failing test fails its target too; a target counts on its own
    # only when it failed with no test named (a crashed binary), or when
    # it timed out, which the row names.
    named = [t for t in new_tests if not t.startswith("target ")]
    timed = [t.removesuffix(" timed out") for t in new_tests if t.endswith(" timed out")]
    by = [k for k, hit in (("tier-1", new_tests), ("campaign", new_cells)) if hit]
    killed += bool(by)
    failures = f"{len(named)}" + (f" and {len(timed)} timed out" if timed else "")
    print(f"| {n} | {rules[n]} | {failures} | {len(new_cells)} | {' and '.join(by) or '**survives**'} |")
    for t in named or [t for t in new_tests if not t.endswith(" timed out")]:
        details.append(f"- {n}, tier-1: `{t}`")
    for t in timed:
        details.append(f"- {n}, tier-1: `{t.removeprefix('target ')}` timed out")
    for c in new_cells[:5]:
        details.append(f"- {n}, campaign: `{c}`")
    if len(new_cells) > 5:
        details.append(f"- {n}, campaign: {len(new_cells) - 5} more cells")
print()
print(f"Killed: {killed} of {len(names)}. Baseline failures, subtracted from every row: "
      f"{len(base_tests)} tier-1 ({', '.join(f'`{t}`' for t in sorted(base_tests)) or 'none'}), "
      f"{len(base_cells)} campaign ({', '.join(f'`{c}`' for c in sorted(base_cells)) or 'none'}); "
      f"campaign `--seeds {seeds}`.")
if details:
    print()
    print("What killed each mutant:")
    print()
    print("\n".join(details))
# What each failing baseline test printed, indented as a code block.
captured = {}
for line in open(f"{work}/baseline.failures", errors="replace"):
    test, _, text = line.rstrip("\n").partition("\t")
    captured.setdefault(test, []).append(text)
base_named = sorted(t for t in base_tests if not t.startswith("target "))
if base_named:
    print()
    print("What the baseline's failing tests printed:")
    for t in base_named:
        print()
        print(f"- `{t}`:")
        print()
        texts = captured.get(t, ["(nothing captured)"])
        while texts and not texts[-1].strip():
            texts.pop()
        for text in texts:
            print(f"      {text}".rstrip())
PY
cat <<EOF

Stamp: tree \`$(git rev-parse --short HEAD) ($([ -z "$(git status --porcelain)" ] && echo clean || echo dirty))\`, copied to one scratch directory and mutated there, one mutant at a time; tier-1 is \`cargo build --release\` then \`cargo test --no-fail-fast -- --quiet\`, the campaign \`hc3i-sim campaign --seeds $seeds\`; \`nproc\` $(nproc), $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | xargs); kernel \`$(uname -r)\`; \`$(rustc --version)\`; $(date -u +%F).
EOF
