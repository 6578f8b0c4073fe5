"""Benchmark of ecocycle: fixed-budget optimizer batches, timed end to end.

    python3 perfbench/run.py --workload sphere30 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's ``src`` directory; without it the benchmark exits with status 1
before printing a result. One process, one thread: the BLAS pools are
pinned to one thread before NumPy loads.

A run repeats whole rounds of its workload (see ``workloads.py``) until
starting another would pass ``--seconds``, then checks every output. With
``--trace 0`` it reports the end-to-end metrics, its timings scaled by the
host's speed measured between fits (see ``calibration.py``); with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics
from the traced ones (see ``tracing.py``). The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3


def _import_program():
    """Import ecocycle from this checkout's src, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ecocycle
    except ImportError as exc:
        sys.exit(f"error: cannot import ecocycle from {SRC}: {exc}")
    where = pathlib.Path(ecocycle.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"error: ecocycle was imported from {where}, not from {SRC}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sphere30", "engineering", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def machine_line() -> str:
    import numpy
    import scipy

    return (
        f"machine: {os.cpu_count()} cores, {platform.machine()}, "
        f"Python {platform.python_version()}, NumPy {numpy.__version__}, SciPy {scipy.__version__}"
    )


def setup_seconds(code: str) -> float:
    """Median wall time of a fresh interpreter that imports ecocycle and
    builds the workload's problems."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def digest(outputs) -> str:
    """SHA-256 of the seeded outputs: best values and points, bit for bit."""
    h = hashlib.sha256()
    for pid, alg, seed, value, point in outputs:
        h.update(f"{pid},{alg},{seed},{float(value).hex()},".encode())
        h.update(",".join(float(v).hex() for v in point).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_rounds(workload, seconds: float, trace: bool):
    """Whole rounds, started until `seconds` have passed. Traced runs
    alternate untraced and traced rounds and make at least one of each."""
    from calibration import HostSpeed
    from tracing import Tracer

    host = HostSpeed(sample=not trace)
    tracer = Tracer() if trace else None
    rounds, traced, starts = [], [], []
    start = time.perf_counter()
    r = 0
    while True:
        on = trace and r % 2 == 1
        if on:
            tracer.install()
        starts.append(time.perf_counter() - start)
        try:
            rounds.append(workload.run_round(r, tracer if on else None, host))
        finally:
            if on:
                tracer.uninstall()
        traced.append(on)
        r += 1
        if time.perf_counter() - start >= seconds and (r >= 2 or not trace):
            break
    return rounds, traced, starts, tracer, host


def raw_timings(rounds) -> tuple[float, float]:
    """Mean round wall time and evaluations per second inside `fit`, as
    measured. Averaged over the run rather than taken as a median of its
    rounds, since the host's speed shifts in steps that last seconds and the
    mean weighs each step by its length."""
    wall = statistics.fmean(rd.wall for rd in rounds)
    return wall, sum(rd.evals for rd in rounds) / sum(rd.fit_seconds for rd in rounds)


def end_to_end(rounds, setup_s: float, host) -> dict:
    """The timings scaled to the host speed of calibration.NOMINAL_S."""
    wall, evals_per_s = raw_timings(rounds)
    return {
        "setup_s": (setup_s, "s"),
        "ref_wall_s": (wall * host.scale(), "s"),
        "ref_evals_per_s": (evals_per_s / host.scale(), "evals/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(rounds, traced, tracer, workload):
    """Per-layer metrics from the traced rounds: (metrics, absent names,
    (traced fit ns, sum of self ns inside fits, self ns by span name))."""
    own, fit_ns, self_sum_ns = tracer.self_times()
    c = tracer.counts
    eco_iters = c["iters:EcoOptimizer"]
    pso_iters = c["iters:PsoOptimizer"]
    iters = eco_iters + pso_iters
    fits = c["fits:EcoOptimizer"] + c["fits:PsoOptimizer"]
    harness_calls = tracer.calls("harness.run_experiment")
    harness_ns = tracer.total_ns("harness.run_experiment")
    evaluate_calls = tracer.calls("problems.evaluate")
    walls_on = [rd.wall for rd, on in zip(rounds, traced) if on]
    walls_off = [rd.wall for rd, on in zip(rounds, traced) if not on]

    def us_per(name, n):
        return (own.get(name, 0) / 1e3 / n) if n else None

    def ratio(a, b):
        return a / b if b else None

    metrics = {
        "eco.self_us_per_iter": (us_per("eco.fit", eco_iters), "us"),
        "eco.decompose_us_per_iter": (us_per("eco.decompose", eco_iters), "us"),
        "eco.predation_factor_us_per_iter": (us_per("eco.predation_factor", eco_iters), "us"),
        "eco.producer_us_per_iter": (us_per("eco.producer", eco_iters), "us"),
        "eco.producer_change_ratio": (ratio(c["producer_changes"], c["producer_calls"]), "ratio"),
        "eco.iters_per_fit": (ratio(eco_iters, c["fits:EcoOptimizer"]), "count"),
        "problems.evaluate_us_per_iter": (us_per("problems.evaluate", iters), "us"),
        "problems.violation_us_per_iter": (us_per("problems.violation", iters), "us"),
        "problems.repair_us_per_iter": (us_per("problems.repair", iters), "us"),
        "problems.repair_row_ratio": (ratio(c["repair_replaced"], c["repair_rows"]), "ratio"),
        "problems.evals_per_fit": (ratio(c["evals:EcoOptimizer"] + c["evals:PsoOptimizer"], fits), "count"),
        "engineering.constraint_calls_per_batch": (
            ratio(c["constraint_calls"], evaluate_calls) if c["constrained_fits"] else None,
            "count",
        ),
        "analysis.diversity_us_per_iter": (us_per("analysis.diversity", iters), "us"),
        "analysis.stats_ms": (ratio(tracer.total_ns("analysis.stats") / 1e6, harness_calls), "ms"),
        "base.record_us_per_iter": (us_per("base.record", iters), "us"),
        "pso.self_us_per_iter": (us_per("pso.fit", pso_iters), "us"),
        "harness.report_ms": (
            ratio((harness_ns - tracer.fit_ns_within("harness.run_experiment")) / 1e6, harness_calls),
            "ms",
        ),
        "harness.report_bytes": (
            ratio(sum(getattr(workload, "report_bytes", [])), len(getattr(workload, "report_bytes", []))),
            "bytes",
        ),
        "harness.fit_share": (ratio(tracer.fit_ns_within("harness.run_experiment"), harness_ns), "ratio"),
        "trace.fit_us_per_iter": (fit_ns / 1e3 / iters if iters else None, "us"),
        "trace.overhead_ratio": (statistics.median(walls_on) / statistics.median(walls_off), "ratio"),
    }
    absent = sorted(name for name, (value, _) in metrics.items() if value is None)
    absent += [f"{path} (not exposed)" for path in tracer.absent]
    filled = {name: (0.0 if value is None else value, unit) for name, (value, unit) in metrics.items()}
    return filled, absent, (fit_ns, self_sum_ns, own)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import workloads

    print(machine_line())
    cls = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(cls.setup_code)
    workload = cls(args.seed, OUT) if cls is workloads.Grid else cls(args.seed)
    rounds, traced, starts, tracer, host = run_rounds(workload, args.seconds, bool(args.trace))

    operations = [op for rd in rounds for op in rd.operations]
    failed = [op for op in operations if op.error is not None]
    unexpected = [op for op in failed if not op.expected]
    for op in failed:
        tag = "known fault" if op.expected else "FAILED"
        print(f"{tag}: {args.workload} {op.label}: {op.error}")
    for r, (rd, on, t) in enumerate(zip(rounds, traced, starts)):
        print(
            f"round {r}{' traced' if on else ''}: start {t:.3f} s, wall {rd.wall:.4f} s, "
            f"fit {rd.fit_seconds:.4f} s, {rd.evals} evaluations, {len(rd.operations)} operations"
        )
    print(f"digest {args.workload} seed {args.seed} round 0: {digest(rounds[0].outputs)}")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"cpu: {usage.ru_utime + usage.ru_stime:.3f} s in this process")
    wall, evals_per_s = raw_timings(rounds)
    print(f"measured: wall {wall:.4f} s, {evals_per_s:.1f} evals/s")
    if host.samples:
        print(
            f"host-speed loop: mean {1e3 * statistics.fmean(host.samples):.2f} ms, median "
            f"{1e3 * statistics.median(host.samples):.2f} ms, {len(host.samples)} samples, "
            f"{host.spent:.2f} s in all; scale {host.scale():.4f}"
        )

    if args.trace:
        metrics, absent, (fit_ns, self_sum_ns, own) = per_layer(rounds, traced, tracer, workload)
        print(
            f"traced fit time {fit_ns / 1e9:.4f} s; self times inside fits add up to "
            f"{self_sum_ns / 1e9:.4f} s"
        )
        for name in sorted(own):
            print(f"  self {name}: {own[name] / 1e9:.4f} s")
        for name in absent:
            print(f"absent: {name}")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics = end_to_end(rounds, setup_s, host)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": len(operations),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
