"""Seeded, self-checking benchmark for grcat.

    python3 perfbench/run.py --workload census|classify|coboundary12|all
                             [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Run from the repository root.  grcat is imported from src/ next to this
directory, never from an installed copy.  One run builds the workload's
seeded inputs, then repeats whole rounds of its fixed operations until
--seconds have passed (at least one round).  Every answer is checked; the
last line of stdout is one JSON object with correct, attempted, failed and
the metrics named in BENCHMARK.json: the end-to-end ones with --trace 0,
the per-layer ones (from spans around each grcat call) with --trace 1.
The exit code is 1 when an answer was wrong and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("census", "classify", "coboundary12")


def process_age():
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def run_round(ops, tracer):
    """One pass over the operations: per-op latencies and (kind, reason, wrong) failures.

    Each latency is a (wall, cpu) pair of seconds.  The cpu one is the process's
    CPU clock: grcat runs on this one thread and does no I/O, so it is the wall
    latency less the time the host kept the process off its CPU.
    """
    latencies = []
    failures = []
    for op in ops:
        with tracer.span(op.kind):
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                out = op.body()
                error = None
            except Exception as exc:  # an operation that raises is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            latencies.append((time.perf_counter() - t0, time.process_time() - c0))
        if error is not None:
            failures.append((op.kind, error, False))
            continue
        try:
            reason = op.check(out)
        except Exception as exc:  # an answer of the wrong shape is a wrong answer
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((op.kind, reason, True))
    return latencies, failures


def run_rounds(ops, tracer, seconds):
    """Whole rounds until `seconds` have passed.

    Traced: round 1 is traced and gives the per-layer numbers; after it,
    untraced and traced rounds alternate (at least one of each) so that the
    tracing overhead compares warm rounds with warm rounds.
    """
    traced = tracer.enabled
    least = 3 if traced else 1
    rounds = []
    start = time.perf_counter()
    while True:
        tracer.round = len(rounds) + 1
        tracer.enabled = traced and len(rounds) % 2 == 0
        rounds.append((tracer.enabled, *run_round(ops, tracer)))
        if time.perf_counter() - start >= seconds and len(rounds) >= least:
            break
    tracer.enabled = traced
    return rounds


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spec, tracer, rounds):
    """Every per-layer metric in `spec`, from the spans of round 1."""
    from spans import END, GROUP, NAME, ROUND, START, WORK

    calls = {}
    for s in tracer.spans:
        if s[ROUND] == 1:
            calls.setdefault(s[NAME], []).append((s[END] - s[START], s[WORK], s[GROUP]))

    def cold_warm(name):
        first, rest = {}, {}
        for dur, _, group in calls.get(name, []):
            if group in first:
                rest[group].append(dur)
            else:
                first[group], rest[group] = dur, []
        return first, rest

    warm = {flag: [sum(w for w, _ in lat) for enabled, lat, _ in rounds[1:]
                   if enabled == flag]
            for flag in (True, False)}
    overhead = _median(warm[True]) - _median(warm[False])
    out = {}
    for m in spec:
        name = m["name"]
        layer, _, stat = name.rpartition(".")
        durs = [c[0] for c in calls.get(layer, [])]
        if name == "intlinalg.bar_snf_s":
            # derived: per group, the first is_bar_coboundary call minus the warm median
            first, rest = cold_warm("cohomology.is_bar_coboundary")
            value = sum(first[g] - statistics.median(rest[g]) for g in first if rest[g])
        elif name == "trace.overhead_s":
            value = overhead
        elif name == "trace.overhead_pct":
            value = 100.0 * overhead / _median(warm[False])
        elif name == "trace.spans":
            value = sum(len(v) for v in calls.values())
        elif stat == "calls":
            value = len(durs)
        elif stat == "busy_s":
            value = sum(durs)
        elif stat in ("p50_ms", "p50_us"):
            value = _median(durs) * (1e3 if stat == "p50_ms" else 1e6)
        elif stat == "cold_s":
            value = sum(cold_warm(layer)[0].values())
        elif stat == "warm_p50_ms":
            value = _median([d for ds in cold_warm(layer)[1].values() for d in ds]) * 1e3
        elif stat == "per_s" or stat.endswith("_per_s"):
            busy = sum(durs)
            value = sum(c[1] for c in calls.get(layer, [])) / busy if busy else 0.0
        else:
            raise KeyError(f"no rule computes the per-layer metric {name}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run_one(args, spec):
    if not os.path.isfile(os.path.join(SRC, "grcat", "__init__.py")):
        print(f"run.py: no grcat sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import grcat
    import spans
    import workloads

    if not os.path.abspath(grcat.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported grcat from {grcat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = spans.Tracer(bool(args.trace))
    ops = workloads.build(args.workload, args.seed, args.size, tracer)
    setup_s = process_age()

    rounds = run_rounds(ops, tracer, args.seconds)
    attempted = sum(len(lat) for _, lat, _ in rounds)
    failures = [f for _, _, fs in rounds for f in fs]
    wall_s = sum(w for w, _ in rounds[0][1])
    # op_p50_ms, on the CPU clock (see run_round): every operation but the
    # first on each group in round 1, which is the one that fills the lazy caches
    warm_cpu = [c for i, (_, lat, _) in enumerate(rounds)
                for op, (_, c) in zip(ops, lat) if i or not op.first]
    op_p50_ms = _median(warm_cpu) * 1e3
    wrong = [f for f in failures if f[2]]

    print(f"{args.workload} seed {args.seed} size {args.size}: {len(rounds)} rounds "
          f"of {len(ops)} operations, {len(failures)} failed")
    print(f"  setup_s {setup_s:.3f}  wall_s {wall_s:.3f} (round 1, "
          f"{sum(c for _, c in rounds[0][1]):.3f} s on the CPU clock)  op_p50_ms "
          f"{op_p50_ms:.2f} over {len(warm_cpu)} operations")
    for kind, reason, is_wrong in failures[:10]:
        print(f"  {'WRONG' if is_wrong else 'FAILED'} {kind}: {reason}")

    if args.trace:
        metrics = layer_metrics(spec["per_layer"], tracer, rounds)
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "op_p50_ms": op_p50_ms,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if wrong else 0


def run_all(args):
    """Each workload in its own process, so set-up and memory stay per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            return code or 2
        doc = json.loads(lines[-1])
        total["correct"] &= doc["correct"]
        total["attempted"] += doc["attempted"]
        total["failed"] += doc["failed"]
        for key, value in doc["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    print(json.dumps(total))
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
