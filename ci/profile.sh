#!/usr/bin/env bash
# Where a process spends its time, without perf, gdb or valgrind: a timer
# sampler preloaded into the command, folded through addr2line.
#
#   ci/profile.sh [--top N] [--repeat R] [--focus FN] COMMAND [ARGS...]
#
# Builds a small shared object with cc. Preloaded (LD_PRELOAD), it arms a
# timer (`timer_create` on CLOCK_MONOTONIC, one SIGPROF per millisecond,
# delivered to the thread that loaded it: the main thread) and records
# the interrupted instruction pointer; at exit it writes the samples and
# the process's /proc/self/maps. The fold places each sample in the
# executable's text segment (its mapping's start and file offset against
# `readelf -l`'s LOAD segment) and symbolizes every distinct address with
# `addr2line -a -f -i -C`, inline chain included. Samples outside the
# executable count under the library they fall in. Every process the
# command starts is sampled; the report covers the one with the most
# samples, summed over R runs of the command (default 1). A program that
# computes on its main thread, like `hc3i-sim run`, is sampled per ms of
# its CPU time; time blocked in a system call shows as the C library.
#
# Prints four tables, shares of all samples: `self`, the innermost frame
# (the function whose code was running, inlined or not); `own`, the
# innermost frame outside the standard library (`core`, `alloc`, `std`
# and the crates they are built from),
# which names the workspace function a sample is attributable to;
# `crate`, the crate of that frame, which is the layer; and `inclusive`,
# every function on the inline chain (an inlined callee counts in its
# caller too). The chain is what inlining folded into one address; calls
# that were not inlined are not walked (no frame pointers), so a sample
# in an out-of-line standard-library function, a sort say, counts under
# that function and crate. Symbols need the binary's debug info, which
# the workspace's release profile keeps. The command's stdout and stderr
# go to stderr; the report is on stdout.
#
# `--focus FN` adds a fifth table, for the samples whose inline chain has
# a function whose name contains FN: their hottest N addresses, each with
# its `addr2line -i` chain of function and file:line, innermost first —
# which instruction of FN, or of what was inlined into it, the time is on.
set -euo pipefail

top=30 repeat=1 focus=
while [ $# -gt 0 ]; do
  case "$1" in
    --top) top=${2:?--top needs a count}; shift 2 ;;
    --repeat) repeat=${2:?--repeat needs a count}; shift 2 ;;
    --focus) focus=${2:?--focus needs a function name}; shift 2 ;;
    *) break ;;
  esac
done
[ $# -gt 0 ] || { sed -n '5p' "$0" >&2; exit 2; }

tmp=$(mktemp -d) && trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/sampler.c" <<'C'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <sys/syscall.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long samples[MAX_SAMPLES];
static unsigned long taken;
static timer_t timer;
static int armed;

static void on_tick(int sig, siginfo_t *info, void *uc) {
    (void)sig;
    (void)info;
    unsigned long n = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (n < MAX_SAMPLES)
        samples[n] = (unsigned long)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;
    struct sigevent ev;
    memset(&ev, 0, sizeof ev);
    ev.sigev_notify = SIGEV_THREAD_ID;
    ev.sigev_signo = SIGPROF;
    ev._sigev_un._tid = (pid_t)syscall(SYS_gettid);
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0)
        return;
    struct itimerspec every_ms = {{0, 1000000}, {0, 1000000}};
    armed = timer_settime(timer, 0, &every_ms, NULL) == 0;
}

__attribute__((destructor)) static void stop(void) {
    if (!armed)
        return;
    timer_delete(timer);
    char path[4096], exe[4096];
    static int seq;
    snprintf(path, sizeof path, "%s/%d.%d.samples", OUT_DIR, (int)getpid(), seq++);
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *out = fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps || len < 0)
        return;
    exe[len] = 0;
    fprintf(out, "exe %s\n", exe);
    char line[8192];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    fclose(maps);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}
C
cc -O2 -shared -fPIC -DOUT_DIR="\"$tmp\"" -o "$tmp/sampler.so" "$tmp/sampler.c" -lrt

code=0
for _ in $(seq "$repeat"); do
  LD_PRELOAD="$tmp/sampler.so" "$@" >&2 || code=$?
done

python3 - "$tmp" "$top" "$focus" <<'PY'
import collections, glob, os, subprocess, sys

tmp, top, focus = sys.argv[1], int(sys.argv[2]), sys.argv[3]
files = glob.glob(os.path.join(tmp, "*.samples"))
if not files:
    sys.exit("profile.sh: no samples written (did the command exit through exit()?)")

def load(path):
    exe, maps, rips = None, [], []
    for line in open(path):
        if line.startswith("exe "):
            exe = line[4:].strip()
        elif line.startswith("map "):
            f = line[4:].split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, f[1], int(f[2], 16), f[5] if len(f) > 5 else "[anon]"))
        else:
            rips.append(int(line, 16))
    return exe, maps, rips

# The most-sampled executable, every run of it. A run's addresses are
# placed by its own maps (the load base moves from run to run).
runs = [load(f) for f in files]
exe = collections.Counter({e: 0 for e, _, _ in runs})
for e, _, rips in runs:
    exe[e] += len(rips)
exe = exe.most_common(1)[0][0]
runs = [(maps, rips) for e, maps, rips in runs if e == exe]

# The executable's text: its LOAD segment with the execute flag.
segs = []
for line in subprocess.run(["readelf", "-lW", exe], capture_output=True, text=True).stdout.splitlines():
    f = line.split()
    if f and f[0] == "LOAD" and "E" in "".join(f[6:-1]):
        segs.append((int(f[1], 16), int(f[2], 16), int(f[5], 16)))  # offset, vaddr, filesz

def place(maps, rip):
    """The ELF address of `rip` in the executable, or the name of what it hit."""
    for lo, hi, perms, off, path in maps:
        if lo <= rip < hi:
            if path != exe:
                return None, "[" + os.path.basename(path) + "]"
            file_off = rip - lo + off
            for s_off, s_vaddr, s_size in segs:
                if s_off <= file_off < s_off + s_size:
                    return file_off - s_off + s_vaddr, None
            return None, "[" + os.path.basename(exe) + " outside text]"
    return None, "[unmapped]"

placed = [place(maps, r) for maps, rips in runs for r in rips]
addrs = sorted({a for a, _ in placed if a is not None})
chains = {}
if addrs:
    out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
                         input="".join(f"{a:x}\n" for a in addrs),
                         capture_output=True, text=True).stdout.splitlines()
    # Per address: its line, then (function, file:line) pairs, innermost
    # inlined frame first.
    cur, want_function = None, False
    for line in out:
        if line.startswith("0x") and all(c in "0123456789abcdef" for c in line[2:]):
            cur, want_function = int(line, 16), True
            chains[cur] = []
        elif want_function:
            chains[cur].append([line])
            want_function = False
        else:
            chains[cur][-1].append(line)
            want_function = True
lines = {a: [at for _, at in chain] for a, chain in chains.items()}
chains = {a: [f for f, _ in chain] for a, chain in chains.items()}

def short(name):
    """A symbol without generic arguments: `<Vec<T> as Drop>::drop` reads
    `<Vec as Drop>::drop`."""
    base = 1 if name.startswith("<") else 0
    depth, kept = 0, []
    for c in name:
        depth += c == "<"
        if depth <= base:
            kept.append(c)
        depth -= c == ">"
    return "".join(kept)

def crate(name):
    """The crate a symbol belongs to: its path's first segment, the
    trait's for an impl on a primitive type (`<u64 as core::..>`)."""
    if name.startswith("<"):
        self_ty, _, trait = name[1:].partition(" as ")
        self_ty = self_ty.lstrip("&*[").removeprefix("mut ").removeprefix("const ")
        if "::" in self_ty.split(">")[0]:
            name = self_ty
        else:  # a primitive type's impl: its trait's crate, or the core library's
            name = trait or "core::"
    return name.split("::", 1)[0].strip("<>[]&* ")

# The standard library and what it is built from.
STD = {"core", "alloc", "std", "compiler_builtins", "hashbrown", "__udivti3"}

self_n, own_n, crate_n, incl_n = (collections.Counter() for _ in range(4))
for addr, lib in placed:
    frames = [short(f) for f in chains.get(addr, [])] if addr is not None else [lib]
    frames = frames or ["??"]
    self_n[frames[0]] += 1
    own = next((f for f in frames if crate(f) not in STD), frames[-1])
    own_n[own] += 1
    crate_n[crate(own)] += 1
    for f in set(frames):
        incl_n[f] += 1

total = len(placed)
print(f"{total} samples of {os.path.basename(exe)} over {len(runs)} run(s), one per ms")
for title, counts in (("self", self_n), ("own", own_n), ("crate", crate_n), ("inclusive", incl_n)):
    print(f"\n| {title} % | samples | {'crate' if counts is crate_n else 'function'} |\n|---:|---:|---|")
    for name, n in counts.most_common(top):
        print(f"| {100 * n / total:.1f} | {n} | `{name}` |")

if focus:
    hot = collections.Counter(a for a, _ in placed
                              if a is not None and any(focus in f for f in chains.get(a, [])))
    n_focus = sum(hot.values())
    print(f"\n{n_focus} samples have `{focus}` on their inline chain")
    print(f"\n| focus % | samples | address | inline chain, innermost first |\n|---:|---:|---|---|")
    def where(at):
        """file:line, relative to the working directory; the standard
        library's from its `library/` directory."""
        if "/rustc/" in at:
            return "library/" + at.split("/library/", 1)[-1]
        return os.path.relpath(at) if at.startswith("/") else at
    for addr, n in hot.most_common(top):
        chain = "<br>".join(f"`{short(f)}` {where(at)}" for f, at in zip(chains[addr], lines[addr]))
        print(f"| {100 * n / n_focus:.1f} | {n} | {addr:#x} | {chain} |")
PY
exit $code
