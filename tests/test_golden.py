"""Golden traces: seeded optimizer runs must reproduce recorded bytes.

`golden_eco.json` and `golden_pso.json` hold, per (problem, budget, seed),
the final best_x_, best_value_, best_violation_ and n_fes_ plus a SHA-256 of
every trace column. Each fixture was recorded from its optimizer before that
optimizer's hot loop was restructured for speed, so they guard the
same-seed-same-bytes promise against the old code rather than against itself.

Re-record (`PYTHONPATH=src python tests/test_golden.py eco|pso`) only for a
change that alters seeded output on purpose and says why. Add `--diff` to
print every fixture key that a re-record would change, without writing.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from ecocycle.classic import make_classic
from ecocycle.eco import EcoOptimizer
from ecocycle.engineering import make_engineering
from ecocycle.problems import Bounds, Problem
from ecocycle.pso import PsoOptimizer

OPTIMIZERS = {"eco": EcoOptimizer, "pso": PsoOptimizer}


def golden_path(alg: str) -> pathlib.Path:
    return pathlib.Path(__file__).with_name(f"golden_{alg}.json")


def sphere_with_region(dim, half_width, region, fill):
    """Sphere whose objective is `fill` (NaN or an infinity) inside region."""

    def objective(x):
        return np.where(region(x), fill, np.sum(np.square(x), axis=-1))

    return Problem("sphere_region", dim, Bounds.symmetric(half_width, dim), objective)


# (case id, problem factory, max_fes, seeds). With a budget of 100 PSO runs
# dry inside its third sweep, while ECO spends 84 evaluations on one full
# iteration and stops there, because a second one would not fit. A budget of
# 83 ends ECO inside its first iteration, before the decomposition sweep is
# whole. The region cases pin behaviour on non-finite objectives: NaN in the
# initial population, NaN met only near the optimum, and +/-inf bands.
CASES = (
    ("f1_d5", lambda: make_classic("f1", dim=5).problem, 3000, (1, 2)),
    ("f1_d5_truncated", lambda: make_classic("f1", dim=5).problem, 100, (1, 2)),
    ("f1_d5_partial", lambda: make_classic("f1", dim=5).problem, 83, (1, 2)),
    ("f1_d30", lambda: make_classic("f1", dim=30).problem, 6000, (7, 8)),
    ("f8_d5", lambda: make_classic("f8", dim=5).problem, 3000, (3, 4)),
    ("rc15", lambda: make_engineering("rc15").problem, 5000, (1, 2)),
    ("rc17", lambda: make_engineering("rc17").problem, 5000, (1, 2)),
    ("rc19", lambda: make_engineering("rc19").problem, 5000, (1, 2)),
    ("rc20", lambda: make_engineering("rc20").problem, 3000, (1, 2)),
    ("rc31", lambda: make_engineering("rc31").problem, 3000, (1, 2)),
    (
        "nan_start",
        lambda: sphere_with_region(5, 100.0, lambda x: x[..., 0] > 4, np.nan),
        3000,
        (3, 4),
    ),
    (
        "nan_near_optimum",
        lambda: sphere_with_region(5, 100.0, lambda x: np.abs(x[..., 0]) < 0.5, np.nan),
        5000,
        (0, 1),
    ),
    (
        "inf_band",
        lambda: sphere_with_region(4, 10.0, lambda x: np.abs(x[..., 1] - 3) < 2, np.inf),
        3000,
        (0, 1),
    ),
    (
        "neg_inf_band",
        lambda: sphere_with_region(4, 10.0, lambda x: np.abs(x[..., 1] - 3) < 0.01, -np.inf),
        3000,
        (0, 1),
    ),
)

TRACE_COLUMNS = {
    "iters": "<i8",
    "fes": "<i8",
    "best_values": "<f8",
    "best_viols": "<f8",
    "div": "<f8",
}


def column_digest(values, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


def fingerprint(alg: str, problem: Problem, max_fes: int, seed: int) -> dict:
    opt = OPTIMIZERS[alg](max_fes=max_fes, seed=seed).fit(problem)
    return {
        "seed": seed,
        "max_fes": max_fes,
        "best_x": [float(v) for v in opt.best_x_],
        "best_value": opt.best_value_,
        "best_violation": opt.best_violation_,
        "n_fes": opt.n_fes_,
        "trace_sha256": {
            name: column_digest(getattr(opt.trace_, name), dtype)
            for name, dtype in TRACE_COLUMNS.items()
        },
    }


def record(alg: str) -> dict:
    return {
        case_id: [fingerprint(alg, factory(), max_fes, seed) for seed in seeds]
        for case_id, factory, max_fes, seeds in CASES
    }


def same(a, b) -> bool:
    """Exact equality that also matches NaN with NaN."""
    return np.array_equal(np.asarray(a, dtype=float), np.asarray(b, dtype=float), equal_nan=True)


def _golden(alg: str) -> dict:
    return json.loads(golden_path(alg).read_text())


def _flatten(entry: dict, prefix: str = "") -> dict:
    """Nested fixture dict -> {"a.b": leaf}."""
    flat = {}
    for key, value in entry.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _same_leaf(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return same(a, b)


def diff(old: dict, new: dict) -> list:
    """One line per fixture key whose value differs between two recordings,
    as "<case> seed <seed>: <key>: <old> -> <new>"; a key or case present on
    one side only counts as changed too."""
    lines = []
    for case_id in list(new) + [c for c in old if c not in new]:
        if case_id not in old or case_id not in new:
            lines.append(f"{case_id}: case {'added' if case_id in new else 'removed'}")
            continue
        old_runs = {r["seed"]: _flatten(r) for r in old[case_id]}
        new_runs = {r["seed"]: _flatten(r) for r in new[case_id]}
        for seed in sorted(set(old_runs) | set(new_runs)):
            a, b = old_runs.get(seed, {}), new_runs.get(seed, {})
            for key in sorted(set(a) | set(b)):
                if key not in a or key not in b or not _same_leaf(a[key], b[key]):
                    lines.append(
                        f"{case_id} seed {seed}: {key}: {a.get(key, '-')} -> {b.get(key, '-')}"
                    )
    return lines


# ECO's ids carry no optimizer suffix: they predate the PSO fixture.
@pytest.mark.parametrize(
    "alg, case_id, factory, max_fes, seed",
    [
        pytest.param(
            alg,
            case_id,
            factory,
            max_fes,
            seed,
            id=f"{case_id}-seed{seed}" + ("" if alg == "eco" else f"-{alg}"),
        )
        for alg in OPTIMIZERS
        for case_id, factory, max_fes, seeds in CASES
        for seed in seeds
    ],
)
def test_replays_recorded_run(alg, case_id, factory, max_fes, seed):
    expected = next(r for r in _golden(alg)[case_id] if r["seed"] == seed)
    assert expected["max_fes"] == max_fes
    got = fingerprint(alg, factory(), max_fes, seed)
    assert got["n_fes"] == expected["n_fes"]
    assert same(got["best_x"], expected["best_x"])
    assert same(got["best_value"], expected["best_value"])
    assert same(got["best_violation"], expected["best_violation"])
    assert got["trace_sha256"] == expected["trace_sha256"]


def test_fixture_covers_every_case():
    for alg in OPTIMIZERS:
        golden = _golden(alg)
        assert set(golden) == {case_id for case_id, *_ in CASES}, alg
        for case_id, _, _, seeds in CASES:
            assert sorted(r["seed"] for r in golden[case_id]) == sorted(seeds), alg


def test_diff_names_each_changed_key():
    old = {"a": [{"seed": 1, "best_value": float("nan"), "trace_sha256": {"div": "x"}}]}
    assert diff(old, old) == []
    new = {
        "a": [{"seed": 1, "best_value": float("nan"), "trace_sha256": {"div": "y"}}],
        "b": [],
    }
    assert diff(old, new) == ["a seed 1: trace_sha256.div: x -> y", "b: case added"]


if __name__ == "__main__":
    args = sys.argv[1:]
    show_diff = "--diff" in args
    for alg in [a for a in args if a != "--diff"] or list(OPTIMIZERS):
        path = golden_path(alg)
        fresh = record(alg)
        if show_diff:
            lines = diff(_golden(alg), fresh)
            print(f"{path.name}: {len(lines)} key(s) would change")
            for line in lines:
                print(f"  {line}")
        else:
            path.write_text(json.dumps(fresh, indent=1) + "\n")
            print(f"wrote {path}")
