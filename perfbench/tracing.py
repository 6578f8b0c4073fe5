"""Spans recorded from outside the program, around the calls into each layer.

``Tracer.install`` replaces module and class attributes of ``ecocycle`` with
wrappers that record a span per call: name, start, end, parent span and
request. Each optimizer ``fit`` opens a new request, so every span of one fit
shares its id. Spans live in flat in-memory arrays while the run goes and are
written out once, when the run ends. A layer's self time is its spans'
durations minus the durations of their direct children; since calls nest
strictly in one thread, the self times of all spans inside a fit add up to
the fit's own duration.

The attributes are looked up where the program looks them up: ``eco.py``
binds ``evaluate_batch`` and ``resample_outside`` into its own namespace at
import, so those are wrapped in ``ecocycle.eco`` and ``ecocycle.pso``, while
``evaluate_batch`` finds ``violation_of`` in ``ecocycle.problems``. An
attribute the program no longer has is recorded as absent and left alone.
"""

from __future__ import annotations

import array
import collections
import csv
import dataclasses
import importlib
import pathlib
import time

_now = time.perf_counter_ns

# (module or class path, attribute, span name). Spans named *.fit open a
# request. The order is the order of the span table in the output file.
WRAPPED = (
    ("ecocycle.eco:EcoOptimizer", "fit", "eco.fit"),
    ("ecocycle.pso:PsoOptimizer", "fit", "pso.fit"),
    ("ecocycle.eco", "decompose_candidates", "eco.decompose"),
    ("ecocycle.eco", "predation_factor", "eco.predation_factor"),
    ("ecocycle.eco", "producer_update", "eco.producer"),
    ("ecocycle.eco", "evaluate_batch", "problems.evaluate"),
    ("ecocycle.pso", "evaluate_batch", "problems.evaluate"),
    ("ecocycle.problems", "violation_of", "problems.violation"),
    ("ecocycle.eco", "resample_outside", "problems.repair"),
    ("ecocycle.pso", "resample_outside", "problems.repair"),
    ("ecocycle.eco", "population_diversity", "analysis.diversity"),
    ("ecocycle.pso", "population_diversity", "analysis.diversity"),
    ("ecocycle.base:TraceRecorder", "record", "base.record"),
    ("ecocycle.cli", "run_experiment", "harness.run_experiment"),
    ("ecocycle.harness", "summarize", "analysis.stats"),
    ("ecocycle.harness", "wilcoxon_rank_sum", "analysis.stats"),
    ("ecocycle.harness", "win_tie_loss", "analysis.stats"),
    ("ecocycle.harness", "friedman", "analysis.stats"),
)

FIT_SPANS = ("eco.fit", "pso.fit")


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name, None) if class_name else owner


class Tracer:
    """In-memory span store plus the counters kept at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("H")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.request = array.array("q")
        self.counts = collections.Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._current_request = -1
        self._next_request = 0
        self._patches: list[tuple] = []

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> "Tracer":
        for path, attr, name in WRAPPED:
            owner = _resolve(path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{path}.{attr}")
                continue
            hook = _HOOKS.get(name)
            wrapper = self._wrap(original, name, name in FIT_SPANS, hook)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def count_constraint_calls(self, problem):
        """The same problem with every constraint callable counting its calls."""
        constraints = getattr(problem, "constraints", None)
        if not constraints:
            return problem
        counts = self.counts
        counts["constrained_fits"] += 1

        def counting(g):
            def counted(x):
                counts["constraint_calls"] += 1
                return g(x)

            return counted

        return dataclasses.replace(problem, constraints=tuple(counting(g) for g in constraints))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, original, name: str, opens_request: bool, hook):
        name_id = self._name_id(name)
        stack = self._stack
        span_name, start, end = self.span_name, self.start, self.end
        parent, request = self.parent, self.request
        counts = self.counts

        def traced(*args, **kwargs):
            note = hook.before(args) if hook is not None else None
            saved_request = self._current_request
            if opens_request:
                self._current_request = self._next_request
                self._next_request += 1
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            request.append(self._current_request)
            end.append(0)
            stack.append(idx)
            start.append(_now())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = _now()
                stack.pop()
                self._current_request = saved_request
            if hook is not None:
                hook.after(counts, note, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- reading the spans ---------------------------------------------------

    def self_times(self) -> tuple[dict, int, int]:
        """(self ns per span name inside fits, total fit ns, sum of those
        self times). The last two are equal when every span nests."""
        n = len(self.start)
        child = [0] * n
        inside_fit = [False] * n
        fit_ids = {self._name_ids[f] for f in FIT_SPANS if f in self._name_ids}
        fit_total = 0
        for i in range(n):
            p = self.parent[i]
            dur = self.end[i] - self.start[i]
            if p >= 0:
                child[p] += dur
                inside_fit[i] = inside_fit[p] or self.span_name[p] in fit_ids
            if self.span_name[i] in fit_ids and not inside_fit[i]:
                fit_total += dur
        own = collections.Counter()
        for i in range(n):
            if inside_fit[i] or self.span_name[i] in fit_ids:
                own[self.names[self.span_name[i]]] += self.end[i] - self.start[i] - child[i]
        return dict(own), fit_total, sum(own.values())

    def total_ns(self, name: str) -> int:
        """Summed duration of the spans with this name."""
        if name not in self._name_ids:
            return 0
        k = self._name_ids[name]
        return sum(e - s for s, e, m in zip(self.start, self.end, self.span_name) if m == k)

    def calls(self, name: str) -> int:
        if name not in self._name_ids:
            return 0
        k = self._name_ids[name]
        return self.span_name.count(k)

    def fit_ns_within(self, name: str) -> int:
        """Duration of the fit spans whose parent is a span with this name."""
        if name not in self._name_ids:
            return 0
        k = self._name_ids[name]
        fit_ids = {self._name_ids[f] for f in FIT_SPANS if f in self._name_ids}
        total = 0
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and self.span_name[i] in fit_ids and self.span_name[p] == k:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent", "request"])
            for i in range(len(self.start)):
                out.writerow(
                    [
                        i,
                        self.names[self.span_name[i]],
                        self.start[i],
                        self.end[i],
                        self.parent[i],
                        self.request[i],
                    ]
                )


# -- counters kept at the span boundaries ----------------------------------------


class _FitCounts:
    """Iterations and evaluations of every finished fit, by optimizer."""

    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(counts, note, args, result):
        kind = type(result).__name__
        counts[f"fits:{kind}"] += 1
        counts[f"iters:{kind}"] += int(result.n_iters_)
        counts[f"evals:{kind}"] += int(result.n_fes_)


class _ProducerChange:
    """Whether producer re-selection changed the producer rows. Re-selection
    keeps rows in a stable feasibility-first order, so the rows change
    exactly when their (value, violation) columns do."""

    @staticmethod
    def before(args):
        state = args[0]
        n = state.counts[0]
        return state.values[:n].tolist(), state.viols[:n].tolist()

    @staticmethod
    def after(counts, note, args, result):
        state = args[0]
        n = state.counts[0]
        counts["producer_calls"] += 1
        if (state.values[:n].tolist(), state.viols[:n].tolist()) != note:
            counts["producer_changes"] += 1


class _RepairRows:
    """Rows given to the box repair, and rows it replaced."""

    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(counts, note, args, result):
        xs = args[0]
        counts["repair_rows"] += len(xs)
        if result is not xs:
            counts["repair_replaced"] += int((result != xs).any(axis=1).sum())


_HOOKS = {
    "eco.fit": _FitCounts,
    "pso.fit": _FitCounts,
    "eco.producer": _ProducerChange,
    "problems.repair": _RepairRows,
}
