"""Benchmark for latwist: one workload, one client, one thread, closed loop.

    python3 bench/run.py --workload classify --seed 1 --seconds 25 --trace 0

The next operation starts only when the previous one has returned.  Inputs
come from the seed alone and are built outside the timed region; every
answer is checked outside it too.  On a shared host the speed of one
process drifts by up to 2x over seconds and minutes, so every reported
time is scaled to a fixed reference speed by calibration samples taken
between the operations (see speed.py).  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics of a separate traced pass, and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The full report, with provenance and the input profile, goes to the line
before it and to bench/out/.

The library is imported from src/ next to this directory, never from an
installed copy; without it the run fails with exit code 2.  See NOTES.md
for why each workload exists and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import speed
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_OPS = 1000  # p99 then has at least ten samples beyond it
SETUP_PROBES = 5  # fresh interpreters before the timed loop and after it
DEADLINE_S = 40.0  # the loop stops here even below MIN_OPS
CAL_EVERY_S = 0.05  # operation time between two calibration samples
PROFILE_ROWS = 2000  # the input profile reads the first operations only


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_latwist():
    if not (SRC / "latwist" / "__init__.py").is_file():
        fail(f"no latwist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import latwist
    import latwist.cli  # noqa: F401  (the package does not import its cli layer)

    if Path(latwist.__file__).resolve().parent != SRC / "latwist":
        fail(f"imported latwist from {latwist.__file__}, not from {SRC}")
    return latwist


def setup_probe(workload):
    """Fresh-interpreter set-up: import latwist, then fill its caches.

    Prints the time in reference seconds, scaled by calibration samples
    taken just before and just after it.
    """
    before = speed.sample()
    start = perf_counter()
    lw = import_latwist()
    WORKLOADS[workload]().warm_up(lw)
    took = perf_counter() - start
    print(took * speed.scale(before, speed.sample()))


def measure_setup(workload, probes):
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Loop:
    """Runs operations one at a time and keeps timings, failures and profile rows."""

    def __init__(self, wl, lw, seed):
        self.wl, self.lw, self.seed = wl, lw, seed
        self.attempted = 0
        self.failures = []
        self.rows = []

    def one(self, inp, tracer=None, op_id=0):
        """Run and check one operation; return its wall time in seconds."""
        if tracer is not None:
            tracer.op = op_id
        out = err = None
        start = perf_counter()
        try:
            out = self.wl.run(self.lw, inp)
        except Exception as exc:  # a raising operation is a counted failure
            err = exc
        took = perf_counter() - start
        self.attempted += 1
        if err is not None:
            problems = [f"raised {type(err).__name__}: {err}"]
        else:
            try:
                problems = self.wl.check(inp, out)
            except Exception as exc:  # an unreadable answer is a counted failure
                problems = [f"answer check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append({"op": op_id, "input": _summary(inp), "problems": problems[:4]})
        if len(self.rows) < PROFILE_ROWS:
            self.rows.append(self.wl.profile(inp, out))
        return took


def _summary(inp):
    return {k: (str(v) if not isinstance(v, (int, bool, str)) else v)
            for k, v in inp.items() if k not in ("entries", "expect")}


def negative_control(wl, lw, seed):
    """A deliberately wrong expected answer must be reported as a failure."""
    inp = wl.make_input(seed, 0)
    out = wl.run(lw, inp)
    expect = dict(inp["expect"])
    key = next(k for k, v in expect.items() if isinstance(v, bool))
    expect[key] = not expect[key]
    return bool(wl.check(dict(inp, expect=expect), out))


def run_untraced(loop, seconds, pause):
    """Run new inputs until ``seconds`` have passed and MIN_OPS are done.

    A calibration sample (``speed.sample``) runs before the first operation
    and after every CAL_EVERY_S of operation time; each latency is scaled by
    the reference speed over the mean of the samples on either side of it.
    ``pause`` runs before the loop and after it, outside the timing.
    """
    wl, seed = loop.wl, loop.seed
    lat, raw = array("d"), array("d")
    cal = [speed.sample()]
    batch = []

    def flush():
        cal.append(speed.sample())
        factor = speed.scale(cal[-2], cal[-1])
        lat.extend(t * factor for t in batch)
        raw.extend(batch)
        batch.clear()

    pause()
    start = perf_counter()
    while (perf_counter() - start < seconds or len(raw) < MIN_OPS) and perf_counter() - start < DEADLINE_S:
        op = len(raw) + len(batch)
        batch.append(loop.one(wl.make_input(seed, op), op_id=op))
        if sum(batch) >= CAL_EVERY_S:
            flush()
    if batch:
        flush()
    pause()
    busy = sum(raw)
    lat = sorted(lat)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * percentile(lat, 0.50), "ms"),
        "latency_p99_ms": (1000 * percentile(lat, 0.99), "ms"),
    }, {
        "inputs": len(lat),
        "busy_s": busy,
        "raw_ops_per_s": len(raw) / busy,
        "calibration_samples": len(cal),
        "calibration_unit_s": {q: percentile(sorted(cal), p) for q, p in
                               (("min", 0.0), ("p50", 0.5), ("max", 1.0))},
        "p99_samples_beyond": len(lat) - math.ceil(0.99 * len(lat)),
    }


def run_traced(loop, seconds):
    """Alternate untraced and traced passes over the same fixed inputs.

    Counts come from the first traced pass and repeat exactly for a seed;
    times are the fastest over the traced passes, as in the untraced run.
    """
    wl, lw = loop.wl, loop.lw
    inputs = [wl.make_input(loop.seed, i) for i in range(wl.trace_ops)]
    prelude = getattr(wl, "scan", None)  # crosscheck repeats its scans per pass
    tracer = Tracer(lw)
    plain_walls, traced_walls, passes = [], [], []
    start = perf_counter()
    while not passes or (perf_counter() - start < seconds and len(passes) < 15):
        wall = 0.0
        if prelude:
            t0 = perf_counter()
            prelude(lw)
            wall += perf_counter() - t0
        wall += sum(loop.one(inp, op_id=i) for i, inp in enumerate(inputs))
        plain_walls.append(wall)

        tracer.reset()
        hits0, misses0 = tracer.cache_counts()
        tracer.install()
        try:
            wall = 0.0
            if prelude:
                t0 = perf_counter()
                tracer.op = -1
                prelude(lw)
                wall += perf_counter() - t0
            wall += sum(loop.one(inp, tracer, i) for i, inp in enumerate(inputs))
        finally:
            tracer.uninstall()
        hits1, misses1 = tracer.cache_counts()
        traced_walls.append(wall)
        passes.append(tracer.layer_metrics(len(inputs), (hits1 - hits0, misses1 - misses0)))
        if len(passes) == 1:
            spans, dropped = list(tracer.spans), tracer.dropped
    metrics = {}
    for name, (value, unit) in passes[0].items():
        if unit == "s":
            value = min(p[name][0] for p in passes)
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (min(traced_walls) / min(plain_walls), "ratio")
    info = {
        "passes": len(passes),
        "ops_per_pass": len(inputs),
        "plain_pass_s": plain_walls,
        "traced_pass_s": traced_walls,
        "spans_kept": len(spans),
        "spans_dropped": dropped,
        "layers": list(LAYERS),
    }
    return metrics, info, spans


def profile_summary(rows):
    keys = sorted({k for r in rows for k in r})
    out = {}
    for key in keys:
        vals = [r[key] for r in rows if key in r]
        if all(isinstance(v, bool) for v in vals):
            out[f"share_{key}"] = sum(vals) / len(vals)
        else:
            vals.sort()
            out[key] = {q: percentile(vals, p) for q, p in
                        (("min", 0.0), ("p25", 0.25), ("p50", 0.5), ("p75", 0.75), ("p90", 0.9), ("max", 1.0))}
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    lw = import_latwist()
    wl = WORKLOADS[args.workload]()
    wl.warm_up(lw)
    control = negative_control(wl, lw, args.seed)
    loop = Loop(wl, lw, args.seed)
    spans = None
    if args.trace:
        metrics, info, spans = run_traced(loop, args.seconds)
    else:
        # set-up is sampled across the run, so that one slow moment of a
        # shared host does not decide it
        setup = []
        metrics, info = run_untraced(
            loop, args.seconds, lambda: setup.extend(measure_setup(args.workload, SETUP_PROBES)))
        metrics["setup_s"] = (statistics.median(setup), "s")
        info["setup_probes_s"] = setup
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    failed = len(loop.failures)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "fail_ratio": failed / loop.attempted,
        "negative_control_counted": control,
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "host": platform.node(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "git_commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "attempted": loop.attempted,
            "failed": failed,
        },
        "run": info,
        "input_profile": profile_summary(loop.rows),
        "failures": loop.failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        with stem.with_suffix(".spans.jsonl").open("w") as fh:
            for sid, name, t0, t1, parent, op in spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {report['fail_ratio']:.6g} ({failed}/{loop.attempted})")
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps({
        "correct": failed == 0 and control,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
