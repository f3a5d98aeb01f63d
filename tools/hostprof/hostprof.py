#!/usr/bin/env python3
"""hostprof: where one madclock workload spends host time, per Figure 1 seam.

Builds madclock with frame pointers into a target directory of its own
(nothing under madclock/ is written but its ignored out/), runs one workload
under the SIGPROF shim of hostprof.c, symbolises the samples with
`addr2line -i` and prints, for each seam of the table below, the share of
samples that have it anywhere on the stack (inclusive; samples inside
madclock's calibration loop are left out of both sides of the ratio).

    tools/hostprof/hostprof.py --workload burst_fewflows [--seed 11] [--seconds 4]
        [--hz 250] [--top 0] [--target-dir target/hostprof] [--binary PATH]

`--binary` profiles an already built frame-pointer madclock (say, the parent
commit's, built the same way in a scratch clone) instead of building this
tree's. Needs cc, python3, addr2line, nm, readelf, c++filt and the
repository's own cargo.
"""
import argparse
import bisect
import collections
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# (row label, substring of a demangled function name[, substring of the
# name of a function the sample must also be inside]). Indented rows lie
# inside the row above them; only a row with the third field counts just
# the samples that do. The `__udivti3` row names code the selection
# pass no longer reaches: it reads 0 here and says how much it was under
# `--binary <parent>`. A row whose pattern matches no function of the
# profiled binary prints `(no such function)` instead of a share.
SEAMS = [
    ("submit (EngineCore::send)", "EngineCore::send"),
    ("optimize_rail", "EngineCore::optimize_rail"),
    ("  collect_window", "CollectLayer::collect_window"),
    ("    offer_flow", "CollectLayer::offer_flow"),
    ("    OfferWalk::next", "OfferWalk::next"),
    ("    slab lookups (Slab::get*)", "slab::Slab<T>::get", "CollectLayer::collect_window"),
    ("  select_plan_in", "optimizer::select_plan_in"),
    ("    ReorderVariants::propose", "ReorderVariants as madeleine::strategy::Strategy>::propose"),
    ("    EagerAggregation::propose", "EagerAggregation as madeleine::strategy::Strategy>::propose"),
    ("    FifoFallback::propose", "FifoFallback as madeleine::strategy::Strategy>::propose"),
    ("    validation (constraints::)", "madeleine::constraints::validate_"),
    ("    scoring (cost::)", "madeleine::cost::"),
    ("  apply_plan", "EngineCore::apply_plan"),
    ("    Transfer::submit_data", "Transfer::submit_data"),
    ("collect: complete_chunk", "CollectLayer::complete_chunk"),
    ("handle_packet (receive, acks)", "EngineCore::handle_packet"),
    ("  Receiver::on_chunk", "Receiver::on_chunk"),
    ("reliability (madeleine::reliability::)", "madeleine::reliability::"),
    ("observer (madeleine::observer::)", "madeleine::observer::"),
    ("simnet fabric (simnet::topo::)", "simnet::topo::"),
    ("simnet event queue (simnet::event::)", "simnet::event::"),
    ("analysis (prof, diff, trace export)", ("madeleine::prof::", "madeleine::diff::", "madeleine::trace::")),
    ("search trees (BTreeMap/BTreeSet)", "alloc::collections::btree::"),
    ("128-bit division (__udivti3)", "__udivti3"),
]
CALIBRATION = "madclock::host::calibrate"


def die(msg):
    sys.exit("hostprof: " + msg)


def need(tool):
    if shutil.which(tool) is None:
        die("needs `%s` on PATH" % tool)


def run(cmd, **kw):
    done = subprocess.run(cmd, **kw)
    if done.returncode != 0:
        die("`%s` failed with exit code %d" % (" ".join(cmd), done.returncode))
    return done


def build(target_dir):
    """The shim and a frame-pointer madclock, both under `target_dir`."""
    os.makedirs(target_dir, exist_ok=True)
    shim = os.path.join(target_dir, "libhostprof.so")
    run(["cc", "-O2", "-fPIC", "-shared", "-o", shim, os.path.join(HERE, "hostprof.c")])
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir,
               RUSTFLAGS="-C force-frame-pointers=yes -g")
    run(["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(ROOT, "madclock", "Cargo.toml")], env=env)
    return shim, os.path.join(target_dir, "release", "madclock")


def read_samples(path):
    """Stacks (innermost first) and the file-backed mappings as
    (from, to, where the file's first byte is mapped, file)."""
    stacks, maps, base = [], [], {}
    with open(path) as f:
        for line in f:
            if line.startswith("S "):
                stacks.append([int(a, 16) for a in line.split()[1:]])
            elif line.startswith("M "):
                cols = line.split()
                if len(cols) >= 7 and cols[6].startswith("/"):
                    lo, hi = (int(x, 16) for x in cols[1].split("-"))
                    base.setdefault(cols[6], lo - int(cols[3], 16))
                    maps.append((lo, hi, base[cols[6]], cols[6]))
    return stacks, sorted(maps)


def symbolise(stacks, maps, binary):
    """address -> names (an address expands to the functions inlined there)."""
    starts = [m[0] for m in maps]
    real = os.path.realpath(binary)
    names, ours = {}, {}
    for stack in stacks:
        for depth, addr in enumerate(stack):
            if addr in names:
                continue
            at = bisect.bisect_right(starts, addr) - 1
            if at < 0 or addr >= maps[at][1]:
                names[addr] = ("[unmapped]",)
                continue
            _, _, base, path = maps[at]
            if os.path.realpath(path) != real:
                names[addr] = ("[%s]" % os.path.basename(path),)
                continue
            # A position-independent executable's addresses count from
            # where its first byte is mapped; a return address names the
            # instruction after the call.
            names[addr] = ()
            ours[addr] = addr - base - (1 if depth else 0)
    if ours:
        asked = "\n".join("%x" % v for v in ours.values())
        out = run(["addr2line", "-e", binary, "-f", "-C", "-i", "-a"], input=asked,
                  capture_output=True, text=True).stdout.splitlines()
        chains, i = [], 0
        while i < len(out):
            if out[i].startswith("0x"):
                chains.append([])
                i += 1
            else:
                chains[-1].append(out[i])
                i += 2  # a function name, then its file:line
        for addr, chain in zip(ours, chains):
            names[addr] = tuple(chain)
    return names


def functions(binary):
    """The demangled names of the functions `binary` defines: its symbols,
    and the linkage names its debug strings keep for functions the compiler
    inlined everywhere, which have no symbol."""
    out = run(["nm", "-C", "--defined-only", binary], capture_output=True, text=True).stdout
    names = [cols[2] for cols in (line.split(None, 2) for line in out.splitlines()) if len(cols) == 3]
    strings = subprocess.run(["readelf", "-p", ".debug_str", binary],
                             capture_output=True, text=True).stdout
    mangled = "\n".join(word for word in strings.split() if word.startswith("_ZN"))
    if mangled:
        names += run(["c++filt"], input=mangled, capture_output=True, text=True).stdout.splitlines()
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="11")
    ap.add_argument("--seconds", default="4")
    ap.add_argument("--hz", default="250")
    ap.add_argument("--top", type=int, default=0,
                    help="also list the N functions on the most stacks")
    ap.add_argument("--target-dir", default=os.path.join(ROOT, "target", "hostprof"))
    ap.add_argument("--binary", help="profile this frame-pointer madclock instead of building one")
    args = ap.parse_args()
    for tool in ("cc", "addr2line", "nm", "readelf", "c++filt", "cargo"):
        need(tool)
    target_dir = os.path.abspath(args.target_dir)
    shim, binary = build(target_dir)
    if args.binary:
        binary = os.path.abspath(args.binary)
    samples = os.path.join(target_dir, "%s.samples" % args.workload)
    env = dict(os.environ, LD_PRELOAD=shim, HOSTPROF_OUT=samples, HOSTPROF_HZ=args.hz)
    result = run([binary, "--workload", args.workload, "--seed", args.seed,
                  "--seconds", args.seconds, "--trace", "0"],
                 env=env, capture_output=True, text=True).stdout.splitlines()[-1]
    stacks, maps = read_samples(samples)
    names = symbolise(stacks, maps, binary)
    kept, hits = [], collections.Counter()
    for stack in stacks:
        on_stack = {fn for addr in stack for fn in names[addr]}
        if not any(CALIBRATION in fn for fn in on_stack):
            kept.append(on_stack)
            hits.update(on_stack)
    if not kept:
        die("no samples outside calibration — is %s built with frame pointers?" % binary)
    print("%s seed %s: %d samples at %s Hz, %d outside calibration"
          % (args.workload, args.seed, len(stacks), args.hz, len(kept)))
    print("| seam (inclusive) | samples | share |")
    print("|---|---:|---:|")
    defined = functions(binary)
    for label, patterns, *within in SEAMS:
        if isinstance(patterns, str):
            patterns = (patterns,)
        wanted = {fn for fn in hits if any(p in fn for p in patterns)}
        outer = {fn for fn in hits if any(w in fn for w in within)}
        n = sum(1 for on_stack in kept if not wanted.isdisjoint(on_stack)
                and (not within or not outer.isdisjoint(on_stack)))
        if not any(p in fn for fn in defined for p in patterns):
            print("| `%s` | — | (no such function) |" % label)
        else:
            print("| `%s` | %d | %.1f %% |" % (label, n, 100.0 * n / len(kept)))
    if args.top:
        print("\ntop %d functions by samples they are on the stack of:" % args.top)
        for fn, n in hits.most_common(args.top):
            print("%6.1f %%  %s" % (100.0 * n / len(kept), fn))
    print("\n" + result)


if __name__ == "__main__":
    main()
