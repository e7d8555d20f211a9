"""Hooks the benchmark places around dqml's public functions.

Nothing here changes what dqml computes. ``SolveLog`` records every
``solve_dual`` call the pipeline makes, so a run can count unconverged solves
without tracing. ``Tracer`` records a span (name, start, end, parent, items)
around each call into a layer; spans stay in memory until the run writes them
out.
Both patch module attributes, so they see the calls dqml makes internally
(``cross_validate_lambda`` -> ``train_model_set`` -> ``solve_dual``,
``evaluate`` -> ``extract_features``) as well as the benchmark's own calls.
``Runner`` times each set-up and round as a ``Phase``, and ``layer_metrics``
turns the traced phases into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from dqml import datasets, pipeline, symmat


@dataclass
class SolveRecord:
    problem: object  # dqml.ClassProblem
    result: object  # dqml.TrainedQuadraticMatrix
    seconds: float


class _Patches:
    """Module attributes replaced by wrappers, restored on ``remove``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(make_wrapper(original)))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class SolveLog:
    """Records every solve the pipeline makes, with its report."""

    def __init__(self) -> None:
        self.records: list[SolveRecord] = []
        self._patches = _Patches()

    def install(self) -> None:
        def make(solve):
            def logged(problem, *args, **kwargs):
                t0 = time.perf_counter()
                result = solve(problem, *args, **kwargs)
                self.records.append(SolveRecord(problem, result, time.perf_counter() - t0))
                return result

            return logged

        self._patches.replace(pipeline, "solve_dual", make)

    def remove(self) -> None:
        self._patches.remove()


def _evaluate_span(args, kwargs) -> tuple[str, int]:
    """Span name by rule, and the number of samples evaluated."""
    test = kwargs.get("test", args[1] if len(args) > 1 else None)
    rule = kwargs.get("rule", args[2] if len(args) > 2 else "?")
    return f"pipeline.evaluate.{rule}", test.n


# (module, attribute, span) for every traced public function. A span is a
# name, or a function of the call's arguments giving the name and the number
# of items (samples) the call handles; a named span counts one item.
TRACED = (
    (datasets, "generate_synthetic", "datasets.generate_synthetic"),
    (datasets, "split_random", "datasets.split_random"),
    (datasets, "load_csv", "datasets.load_csv"),
    (datasets, "save_csv", "datasets.save_csv"),
    (pipeline, "cross_validate_lambda", "pipeline.cross_validate_lambda"),
    (pipeline, "train_model_set", "pipeline.train_model_set"),
    (pipeline, "solve_dual", "qml.solve_dual"),
    (pipeline, "extract_features", "pipeline.extract_features"),
    (pipeline, "evaluate", _evaluate_span),
    (pipeline, "save_model", "pipeline.save_model"),
    (pipeline, "load_model", "pipeline.load_model"),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, items]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = _Patches()

    def _open(self, name: str, items: int = 1) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, items]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def install(self) -> None:
        for module, attr, name in TRACED:
            self._patches.replace(module, attr, self._make_wrapper(name))

    def remove(self) -> None:
        self._patches.remove()

    def _make_wrapper(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                s = self._open(*name(args, kwargs)) if callable(name) else self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(s)

            return traced

        return make

    def write(self, path) -> None:
        """One row per span; a span's id is its row index, parent -1 for roots."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "clock": "time.perf_counter, seconds",
                    "fields": ["name", "start", "end", "parent", "items"],
                    "spans": self.spans,
                },
                fh,
            )


def self_seconds(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (the benchmark is single-threaded), so
    their durations add up.
    """
    own = [e - s for _, s, e, _, _ in spans]
    for _, s, e, parent, _ in spans:
        if parent >= 0:
            own[parent] -= e - s
    return own


def root_of(spans: list[list]) -> list[int]:
    """Index of each span's outermost ancestor."""
    roots = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
    return roots


@dataclass
class Phase:
    """One set-up or one round, as the run saw it."""

    kind: str  # "setup" or "round"
    traced: bool
    seconds: float = 0.0  # wall time, probes left out
    scaled: float = 0.0  # host-speed-scaled seconds; 0 for a traced phase
    eig_calls: int = 0
    solves: list = field(default_factory=list)


class Runner:
    """Runs set-ups and rounds, traced or not, and keeps what each one saw.

    An untraced phase is timed by ``clock`` (a hostspeed.SpeedClock), in
    pieces with a probe between them; a traced phase in one piece, so that
    no probe falls inside a span.
    """

    def __init__(self, tracer: Tracer, log: SolveLog, clock) -> None:
        self.tracer = tracer
        self.log = log
        self.clock = clock
        self.phases: list[Phase] = []

    def phase(self, kind: str, traced: bool, fn):
        """Time ``fn()`` as one phase; returns the Phase and fn's value."""
        ph = Phase(kind, traced)
        self.log.records = []
        eig0 = symmat.eig_call_count()
        if traced:
            with self._traced(kind):
                t0 = time.perf_counter()
                value = fn()
                ph.seconds = time.perf_counter() - t0
        else:
            self.clock.start()
            value = fn()
            ph.seconds, ph.scaled = self.clock.stop()
        ph.eig_calls = symmat.eig_call_count() - eig0
        ph.solves = self.log.records
        self.phases.append(ph)
        return ph, value

    @contextmanager
    def _traced(self, kind: str):
        self.tracer.install()
        try:
            with self.tracer.span(f"bench.{kind}"):
                yield
        finally:
            self.tracer.remove()


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: list[list], phases: list[Phase], eigh_us: float, probes: list[float]
) -> dict:
    """Per-layer figures from the spans and solve reports of traced phases.

    A time is the seconds one phase (a set-up or a round) spends in the call,
    the median over the phases that make it. Counts are per phase too. Times
    are raw wall times; ``probes`` are the run's host-speed probe times.
    """
    own = self_seconds(spans)
    roots = root_of(spans)
    per_root: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, _, items) in enumerate(spans):
        d = per_root[roots[i]]
        d[name] += end - start
        d[name + "#items"] += items
        if name == "pipeline.train_model_set":
            d["train.self"] += own[i]

    def per_phase(key):
        return _median(d[key] for d in per_root.values() if d.get(key))

    def per_item_us(key):
        return _median(d[key] / d[key + "#items"] * 1e6 for d in per_root.values() if d.get(key))

    solving = [p for p in phases if p.traced and p.solves]
    reports = [[r.result.report for r in p.solves] for p in solving]
    solve_s = [sum(r.seconds for r in p.solves) for p in solving]
    evals = [sum(r.objective_evals for r in rs) for rs in reports]
    iterations = [sum(r.iterations for r in rs) for rs in reports]
    traced_rounds = [p.seconds for p in phases if p.kind == "round" and p.traced]
    plain_rounds = [p.seconds for p in phases if p.kind == "round" and not p.traced]

    def ratio(num, den):
        return _median(a / b for a, b in zip(num, den) if b)

    figures = {
        "qml.solves": (_median(len(rs) for rs in reports), "count"),
        "qml.iterations": (_median(iterations), "count"),
        "qml.evals": (_median(evals), "count"),
        "qml.evals_per_iteration": (ratio(evals, iterations), "ratio"),
        "qml.converged": (_median(sum(r.converged for r in rs) for rs in reports), "count"),
        "qml.solve_s": (_median(solve_s), "s"),
        "qml.us_per_eval": (ratio([s * 1e6 for s in solve_s], evals), "us"),
        "qml.max_grad_inf": (max(r.grad_inf_norm for rs in reports for r in rs), "1"),
        "qml.max_duality_gap": (max(abs(r.duality_gap) for rs in reports for r in rs), "1"),
        "symmat.eig_calls": (_median(p.eig_calls for p in solving), "count"),
        "symmat.eig_calls_per_eval": (ratio([p.eig_calls for p in solving], evals), "ratio"),
        "symmat.eigh_us": (eigh_us, "us"),
        "pipeline.train_s": (per_phase("pipeline.train_model_set"), "s"),
        "pipeline.self_s": (per_phase("train.self"), "s"),
        "pipeline.features_us_per_sample": (per_item_us("pipeline.extract_features"), "us"),
        "pipeline.evaluate_max_us_per_sample": (per_item_us("pipeline.evaluate.max"), "us"),
        "pipeline.evaluate_nn_us_per_sample": (per_item_us("pipeline.evaluate.nn_cosine"), "us"),
        "pipeline.load_model_s": (per_phase("pipeline.load_model"), "s"),
        "pipeline.save_model_s": (per_phase("pipeline.save_model"), "s"),
        "datasets.load_csv_s": (per_phase("datasets.load_csv"), "s"),
        "datasets.generate_s": (per_phase("datasets.generate_synthetic"), "s"),
        "trace.wall_s": (_median(traced_rounds), "s"),
        "trace.overhead_s": (_median(traced_rounds) - _median(plain_rounds), "s"),
        "host.raw_wall_s": (_median(plain_rounds), "s"),
        "host.probe_ms": (_median(probes) * 1e3, "ms"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in figures.items()}
