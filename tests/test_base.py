"""The shared acceptance step, base.accept, that ECO's consumer sweeps and
PSO's personal-best update both call."""

import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ecocycle.base import accept
from ecocycle.problems import TOL_FEAS
from oracles import Evaluation, accept_improved_rows, compare


def make_run(value, viol=0.0, x=(9.0, 9.0)):
    """A one-run stack: the best as (1, D) point and one-float lists."""
    return types.SimpleNamespace(best_x=np.array([x]), best_value=[value], best_viol=[viol])


def rows(values, viols=None, offset=0.0):
    """An (xs, values, viols) triple of one run, with a leading run axis of
    length 1, whose row i sits at (offset + i, offset + i)."""
    values = np.array(values, dtype=float)
    viols = np.zeros_like(values) if viols is None else np.array(viols, dtype=float)
    xs = offset + np.repeat(np.arange(values.shape[0], dtype=float)[:, None], 2, axis=1)
    return xs[None], values[None], viols[None]


class TestAccept:
    def test_strict(self):
        # An equal candidate leaves its row and the best alone.
        run = make_run(1.0)
        incumbents = rows([1.0, 3.0])
        assert not accept(run, rows([1.0, 3.0], offset=10.0), incumbents, False)
        assert incumbents[0].tolist() == [[[0.0, 0.0], [1.0, 1.0]]]
        assert run.best_x.tolist() == [[9.0, 9.0]]

    def test_writes_in_place(self):
        population = rows([5.0, 4.0, 3.0, 2.0])
        run = make_run(2.0)
        view = tuple(column[:, 1:3] for column in population)
        assert accept(run, rows([3.5, 6.0], offset=10.0), view, False)
        assert population[1].tolist() == [[5.0, 3.5, 3.0, 2.0]]
        assert population[0][0, 1].tolist() == [10.0, 10.0]
        assert population[0][0, 2].tolist() == [2.0, 2.0]
        assert run.best_value == [2.0]  # 3.5 improved its row, not the best

    def test_nothing_improved_touches_nothing(self):
        run = make_run(0.5, x=(7.0, 7.0))
        incumbents = rows([1.0, 2.0], [0.0, 3.0])
        before = [column.copy() for column in incumbents]
        assert not accept(run, rows([1.5, 2.0], [0.0, 4.0], offset=10.0), incumbents, True)
        for column, old in zip(incumbents, before):
            assert column.tobytes() == old.tobytes()
        assert run.best_x.tolist() == [[7.0, 7.0]]
        assert (run.best_value, run.best_viol) == ([0.5], [0.0])

    def test_nan_incumbent_is_replaced(self):
        run = make_run(np.nan)
        incumbents = rows([np.nan, np.nan])
        assert accept(run, rows([np.inf, 4.0], offset=10.0), incumbents, False)
        assert incumbents[1].tolist() == [[np.inf, 4.0]]
        assert run.best_value == [4.0] and run.best_x.tolist() == [[11.0, 11.0]]

    def test_nan_candidate_is_never_taken(self):
        run = make_run(np.inf)
        incumbents = rows([np.inf, 1.0], [0.0, 2.0])
        candidates = rows([np.nan, 0.0], [0.0, np.nan], offset=10.0)
        assert not accept(run, candidates, incumbents, True)
        assert incumbents[1].tolist() == [[np.inf, 1.0]]
        assert incumbents[2].tolist() == [[0.0, 2.0]]

    def test_feasible_beats_infeasible(self):
        # Row 0 takes a feasible 9.0 over an infeasible 0.0; row 1 keeps a
        # feasible 5.0 against an infeasible -9.0.
        run = make_run(1.0)
        incumbents = rows([0.0, 5.0], [1.0, 0.0])
        candidates = rows([9.0, -9.0], [0.0, 1e-3], offset=10.0)
        assert accept(run, candidates, incumbents, True)
        assert incumbents[0].tolist() == [[[10.0, 10.0], [1.0, 1.0]]]
        assert incumbents[1].tolist() == [[9.0, 5.0]]
        assert incumbents[2].tolist() == [[0.0, 0.0]]
        assert (run.best_value, run.best_viol) == ([1.0], [0.0])


VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan]), st.floats(-10.0, 10.0)
)
VIOLS = st.sampled_from([0.0, 1e-9, TOL_FEAS, 1e-3, 4.0, np.inf, np.nan])


@st.composite
def pools(draw):
    """Candidates, incumbents, a run best no worse than any incumbent, and
    whether the problem is constrained (box-only violations are zero)."""
    constrained = draw(st.booleans())
    n = draw(st.integers(1, 8))

    def entries(k):
        values = [draw(VALUES) for _ in range(k)]
        viols = [draw(VIOLS) if constrained else 0.0 for _ in range(k)]
        return values, viols

    candidates = rows(*entries(n), offset=10.0)
    incumbents = rows(*entries(n))
    # The best is the compare-minimum of the incumbents and one extra entry.
    pool = [Evaluation(v, w) for v, w in zip(*entries(1))]
    pool += [Evaluation(v, w) for v, w in zip(incumbents[1][0], incumbents[2][0])]
    best = pool[0]
    for e in pool[1:]:
        if compare(e, best) < 0:
            best = e
    return candidates, incumbents, (best.value, best.violation), constrained


@given(pools())
@settings(max_examples=400, deadline=None)
def test_accept_matches_improved_rows_rule(case):
    candidates, incumbents, (value, viol), constrained = case
    # The oracle takes the one run's rows and scalar best.
    run = make_run(value, viol)
    reference = types.SimpleNamespace(best_x=np.array([9.0, 9.0]), best_value=value, best_viol=viol)
    got = [column.copy() for column in incumbents]
    want = [column.copy() for column in incumbents]
    assert accept(run, candidates, got, constrained) == accept_improved_rows(
        reference, [c[0] for c in candidates], [w[0] for w in want]
    )
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert run.best_x[0].tobytes() == reference.best_x.tobytes()
    assert np.array([run.best_value[0], run.best_viol[0]]).tobytes() == np.array(
        [reference.best_value, reference.best_viol]
    ).tobytes()
