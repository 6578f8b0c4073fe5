"""Classic benchmark suite: transcription anchors and catalog behavior."""

import numpy as np
import pytest

from ecocycle.classic import CLASSIC_IDS, UnknownFunction, make_classic
from ecocycle.problems import EvalBudget, evaluate_batch
from oracles import spot_values


def test_catalog_has_23_functions():
    assert len(CLASSIC_IDS) == 23
    assert CLASSIC_IDS[0] == "f1" and CLASSIC_IDS[-1] == "f23"


def test_unknown_id_raises():
    with pytest.raises(UnknownFunction):
        make_classic("f99")
    with pytest.raises(UnknownFunction):
        spot_values("nope")


def test_modality_split():
    unimodal = [f for f in CLASSIC_IDS if make_classic(f).modality == "unimodal"]
    assert unimodal == ["f1", "f2", "f3", "f4", "f5", "f6", "f7"]


def test_fixed_dimensions():
    expected = {
        "f14": 2, "f15": 4, "f16": 2, "f17": 2, "f18": 2,
        "f19": 3, "f20": 6, "f21": 4, "f22": 4, "f23": 4,
    }
    for fid, d in expected.items():
        entry = make_classic(fid, dim=30)  # dim request ignored for fixed
        assert entry.fixed_dim == d
        assert entry.problem.dim == d


def test_variable_dimension_respected():
    for fid in ("f1", "f8", "f13"):
        for d in (2, 10, 50):
            assert make_classic(fid, dim=d).problem.dim == d


@pytest.mark.parametrize("fid", CLASSIC_IDS)
def test_spot_anchors(fid):
    """Every catalog formula reproduces its hand-checked anchor values."""
    problem_cache = {}
    for point, expected, tol in spot_values(fid):
        d = point.shape[0]
        if d not in problem_cache:
            problem_cache[d] = make_classic(fid, dim=d).problem
        got = float(problem_cache[d].objective(point))
        assert got == pytest.approx(expected, abs=tol), (
            f"{fid} at {point[:4]}...: got {got}, expected {expected}"
        )


@pytest.mark.parametrize("fid", CLASSIC_IDS)
def test_vectorized_contract(fid):
    """(n, D) batches produce the same values as row-by-row evaluation."""
    entry = make_classic(fid, dim=6)
    p = entry.problem
    rng = np.random.default_rng(11)
    xs = p.bounds.lower + rng.random((7, p.dim)) * p.bounds.span
    batch = np.asarray(p.objective(xs), dtype=float)
    rows = np.array([float(p.objective(x)) for x in xs])
    assert batch.shape == (7,)
    assert np.allclose(batch, rows, rtol=0, atol=0)


def test_f7_noise_is_injected_at_evaluation():
    entry = make_classic("f7", dim=5)
    p = entry.problem
    assert p.noisy
    xs = np.zeros((1, 5))
    assert float(p.objective(xs[0])) == 0.0  # the raw objective stays noiseless
    rng = np.random.default_rng(3)
    budget = EvalBudget(10)
    vals = {evaluate_batch(p, xs, budget, rng)[1].item() for _ in range(5)}
    # every evaluation drew a fresh noise term, within one batch too
    vals |= set(evaluate_batch(p, np.zeros((5, 5)), budget, rng)[1].tolist())
    assert len(vals) == 10
    assert all(0.0 <= v < 1.0 for v in vals)


def test_f8_optimum_location():
    """The F8 minimizer sits near 420.9687 per coordinate, not at zero."""
    p = make_classic("f8", dim=30).problem
    at_opt = float(p.objective(np.full(30, 420.968746)))
    at_zero = float(p.objective(np.zeros(30)))
    assert at_opt == pytest.approx(-12569.4866, abs=1e-3)
    assert at_zero == 0.0
    assert p.known_optimum == pytest.approx(-418.98 * 30, abs=1e-9)


def test_boxes_match_catalog():
    expected_half = {"f1": 100.0, "f2": 10.0, "f5": 30.0, "f8": 500.0, "f9": 5.12}
    for fid, half in expected_half.items():
        b = make_classic(fid, dim=4).problem.bounds
        assert np.allclose(b.lower, -half) and np.allclose(b.upper, half)
    b17 = make_classic("f17").problem.bounds
    assert np.allclose(b17.lower, [-5.0, 0.0]) and np.allclose(b17.upper, [10.0, 15.0])
