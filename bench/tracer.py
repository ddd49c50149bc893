"""Span tracing of the freeq layers from outside the library.

``Tracer.install`` wraps every public function and every public method of a
class defined in the six layer modules, and rebinds each wrapper in every
``freeq.*`` namespace that bound the original (the modules import each
other's functions by name, e.g. ``from .words import evaluate``).  Each call
then opens a span: name, start, end, parent span, op id.

Self time is computed as spans close: a span's duration minus the durations
of its child spans, accumulated per function name.  Calls and self time are
therefore exact however many spans there are.  The span records themselves
are kept in memory and written once at the end; the shallow ones (an op and
the layer calls it makes directly) are always kept, deeper ones up to
``max_spans`` so that a run making millions of word-level calls stays small.

A few per-function result hooks count what a span produced (candidates,
solutions, closure size) and calls made inside another span (for example
``graph_from_edges`` inside ``terminal_candidates``).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from collections import Counter

LAYERS = ("words", "graphs", "autf2", "solver", "oracle", "cli")

# Sort keys and single-letter helpers: each call costs less than opening a
# span, so wrapping them would mostly measure the tracer.  Their time stays
# in their callers' self time.
UNTRACED = frozenset({
    "words.letter_rank",
    "words.shortlex_key",
    "words.pair_key",
    "words.invert_letter",
})

OP_SPAN = "op"


def public_callables(modules):
    """``(span name, owner, attribute, function)`` for every traced callable.

    ``modules`` maps a layer name to its module.  Generator functions are
    skipped: a wrapper would time only the creation of the generator.
    """
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for mattr, mobj in vars(obj).items():
                    if _traceable(mattr, mobj):
                        yield f"{layer}.{attr}.{mattr}", obj, mattr, mobj
            elif _traceable(attr, obj):
                yield f"{layer}.{attr}", module, attr, obj


def _traceable(attr, obj) -> bool:
    return (
        not attr.startswith("_")
        and inspect.isfunction(obj)
        and not inspect.isgeneratorfunction(obj)
    )


class Tracer:
    """Spans and per-name aggregates for one traced run."""

    def __init__(self, clock=time.perf_counter, max_spans: int = 100_000):
        self._clock = clock
        self._max_spans = max_spans
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self._active: list[int] = []
        self._stack: list[list] = []  # open spans: [child time, span id, start]
        self._ids = itertools.count(1)
        self._op = [-1]  # id of the op being run
        self.spans: list[tuple] = []  # (span id, name index, start, end, parent id, op id)
        self.counters: Counter = Counter()
        self._restore: list[tuple] = []
        self._run_op = self.wrap(OP_SPAN, lambda call: call())

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
            self._active.append(0)
        return self._index[name]

    def wrap(self, name: str, fn, hook=None):
        """A function that runs ``fn`` inside a span named ``name``.

        The span bookkeeping is inlined here because it runs on every call
        into the library: a span's self time is its duration minus the
        durations of the spans that closed inside it.
        """
        idx = self.name_index(name)
        calls, active, self_time = self.calls, self._active, self.self_time
        stack, spans, clock, ids, op = self._stack, self.spans, self._clock, self._ids, self._op
        max_spans = self._max_spans

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            active[idx] += 1
            frame = [0.0, next(ids), clock()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self_time[idx] += duration - frame[0]
                active[idx] -= 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                if len(stack) <= 1 or len(spans) < max_spans:
                    spans.append((frame[1], idx, frame[2], end, parent[1] if parent else 0, op[0]))
            if hook is not None:
                hook(result)
            return result

        return functools.wraps(fn)(wrapper)

    def run_op(self, op_id: int, call):
        """Run ``call()`` as op ``op_id``, under a root span named ``op``."""
        self._op[0] = op_id
        try:
            return self._run_op(call)
        finally:
            self._op[0] = -1

    def active(self, name: str) -> bool:
        """Is a span of this name open right now?"""
        idx = self._index.get(name)
        return idx is not None and self._active[idx] > 0

    @property
    def dropped(self) -> int:
        """Spans closed but not kept (every call opens exactly one span)."""
        return sum(self.calls) - len(self.spans)

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` for every name seen."""
        return {n: (self.calls[i], self.self_time[i]) for i, n in enumerate(self.names)}

    def install(self, modules, namespaces) -> int:
        """Wrap the layers' callables; returns how many were wrapped.

        ``namespaces`` are all loaded ``freeq`` modules: every binding of an
        original function in any of them is replaced by its wrapper.
        """
        hooks = self._hooks()
        wrapped = 0
        for name, owner, attr, fn in list(public_callables(modules)):
            if name in UNTRACED:
                continue
            wrapper = self.wrap(name, fn, hooks.get(name))
            self._rebind(owner, attr, wrapper)
            for ns in namespaces:
                for other, value in list(vars(ns).items()):
                    if value is fn and (ns, other) != (owner, attr):
                        self._rebind(ns, other, wrapper)
            wrapped += 1
        return wrapped

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _hooks(self):
        c = self.counters
        active = self.active

        def candidates(result):
            c["solver.terminal_candidates.candidates"] += len(result)

        def graph_built(result):
            if active("solver.terminal_candidates"):
                c["solver.terminal_candidates.graphs"] += 1

        def orbit_match(result):
            if active("solver.minimal_rank2_solutions"):
                c["solver.orbit_match.attempts"] += 1
                c["solver.orbit_match.hits"] += result is not None

        def pair_tested(result):
            if active("oracle.brute_force_solutions"):
                c["oracle.pairs_tested"] += 1

        def brute_done(result):
            c["oracle.solutions"] += len(result.solutions)

        def closure_done(result):
            c["oracle.closure_size"] += len(result)

        return {
            "solver.terminal_candidates": candidates,
            "graphs.graph_from_edges": graph_built,
            "autf2.orbit_automorphism": orbit_match,
            "solver.Equation.holds_for": pair_tested,
            "oracle.brute_force_solutions": brute_done,
            "oracle.delta_orbit_closure": closure_done,
        }

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the kept spans once, as one JSON document."""
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "names": self.names,
            "spans": self.spans,
            "dropped": self.dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metric_names() -> list[tuple[str, str]]:
    """The per-layer metrics the tracer yields, in output order: (name, unit)."""
    out = []
    for fn in ("reduce_word", "evaluate"):
        out += [(f"words.{fn}.calls", "count"), (f"words.{fn}.self_s", "s")]
    out += [("words.power.calls", "count"), ("words.multiply.calls", "count"), ("words.self_s", "s")]
    for fn in ("graph_from_edges", "build_subgroup_graph"):
        out += [(f"graphs.{fn}.calls", "count"), (f"graphs.{fn}.self_s", "s")]
    out += [("graphs.self_s", "s")]
    out += [("autf2.is_basis_pair.calls", "count"), ("autf2.is_basis_pair.self_s", "s"),
            ("autf2.moves_to_standard.calls", "count")]
    for fn in ("orbit_automorphism", "whitehead_minimize"):
        out += [(f"autf2.{fn}.calls", "count"), (f"autf2.{fn}.self_s", "s")]
    out += [("autf2.self_s", "s")]
    out += [("solver.detect_hnn_splitting.self_s", "s"),
            ("solver.terminal_candidates.self_s", "s"),
            ("solver.terminal_candidates.yield", "ratio"),
            ("solver.minimal_rank2_solutions.self_s", "s"),
            ("solver.apply_to_solution.calls", "count"),
            ("solver.orbit_match_ratio", "ratio"),
            ("solver.generate.self_s", "s"),
            ("solver.self_s", "s")]
    out += [("oracle.brute_force_solutions.self_s", "s"),
            ("oracle.pairs_tested", "count"),
            ("oracle.hit_ratio", "ratio"),
            ("oracle.delta_orbit_closure.self_s", "s"),
            ("oracle.closure_size", "count"),
            ("oracle.self_s", "s")]
    out += [("cli.main.self_s", "s"), ("cli.self_s", "s")]
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures per pass of the op list, keyed by metric name."""
    totals = tracer.totals()
    c = tracer.counters

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / passes

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] / passes

    def layer_self(layer):
        return sum(t for n, (_, t) in totals.items() if n.startswith(layer + ".")) / passes

    values = {}
    for metric, _ in layer_metric_names():
        head, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = calls(head)
        elif field == "self_s" and head in LAYERS:
            values[metric] = layer_self(head)
        elif field == "self_s" and head == "solver.generate":
            values[metric] = sum(
                t for n, (_, t) in totals.items() if n.startswith("solver.generate_")
            ) / passes
        elif field == "self_s":
            values[metric] = self_s(head)
    values["solver.terminal_candidates.yield"] = _ratio(
        c["solver.terminal_candidates.candidates"], c["solver.terminal_candidates.graphs"])
    values["solver.orbit_match_ratio"] = _ratio(
        c["solver.orbit_match.hits"], c["solver.orbit_match.attempts"])
    values["oracle.pairs_tested"] = c["oracle.pairs_tested"] / passes
    values["oracle.hit_ratio"] = _ratio(c["oracle.solutions"], c["oracle.pairs_tested"])
    values["oracle.closure_size"] = c["oracle.closure_size"] / passes
    return values
