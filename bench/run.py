"""freeq benchmark: one workload, closed loop, one caller.

Usage (from the repository root):

    python3 bench/run.py --workload describe --seed 1 --seconds 15 --trace 0

Workloads: ``describe`` (``freeq solve`` in process), ``certify``
(``oracle.certify`` on descriptions built during set-up) and ``generate``
(``generate_*`` plus ``verify_solution`` on descriptions built during
set-up).  See ``bench/README.md`` for why each was chosen.

The program is imported from ``src/`` next to this directory.  Set-up
(import, input generation, descriptions) runs once before the timed loop,
which needs its ops, and again between the loop's ops, spread evenly over
it; ``setup_s`` is the median of all set-ups.  The timed loop runs whole
passes over the op list until ``--seconds`` have passed (set-ups between
ops not counted), at least one.  Every op's output is checked; a wrong
output makes the run fail (exit 1).  The host's speed is sampled through
the run with a reference loop, and every timed call and set-up is scaled
to reference seconds (see ``speed.py``).

With ``--trace 0`` the last line holds the end-to-end metrics, which weigh
each distinct input once, at the median of its scaled times.  With ``--trace 1`` the
passes run each distinct input once: one untraced pass is timed first, then
the layers are wrapped and traced passes run; the last line holds the
per-layer metrics, per pass, and ``trace.overhead`` (traced over untraced
pass time).  Spans are written to ``bench/traces/``.  The line before the
last holds details: sample counts, the median and tail, the input digest
and workload-specific times.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import measure
import speed
import tracer as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
# Set-up runs SETUP_MIN_REPEATS times or more: as often as fits in
# SETUP_SHARE of the timed loop, up to SETUP_MAX_REPEATS.  A shared machine
# has slow spells of a few seconds in which everything takes up to twice as
# long; set-ups spread over the whole run keep one spell from setting the
# median, as back-to-back set-ups would.
SETUP_MIN_REPEATS = 7
SETUP_MAX_REPEATS = 60
SETUP_SHARE = 0.2

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("geomean_s", "s"),
    ("resolved_share", "ratio"),
    ("closed_form_s", "s"),
    ("qh_s", "s"),
    ("hnn_s", "s"),
    ("rigid_s", "s"),
)


def per_layer_names() -> list[tuple[str, str]]:
    names = tracing.layer_metric_names()
    names += [(f"describe.unresolved.{stage}", "count") for stage in wl.DESCRIBE_STAGES]
    names += [("certify.unresolved.closure", "count"), ("trace.overhead", "ratio")]
    return names


class ProgramMissing(RuntimeError):
    pass


def import_freeq() -> dict:
    """Import (or re-import) the six layers from this checkout's ``src``."""
    if not (SRC / "freeq" / "__init__.py").is_file():
        raise ProgramMissing(f"no freeq package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "freeq" or n.startswith("freeq.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"freeq.{layer}") for layer in tracing.LAYERS}
    for mod in mods.values():
        if SRC not in Path(mod.__file__).resolve().parents:
            raise ProgramMissing(f"{mod.__name__} was imported from {mod.__file__}")
    return mods


def set_up(workload: str, seed: int, host: speed.Speed):
    """One set-up between reference-loop samples; returns (modules, setup,
    seconds taken, the same in reference seconds)."""
    host.take()
    started = time.perf_counter()
    mods = import_freeq()
    setup = wl.WORKLOADS[workload](mods, seed)
    ended = time.perf_counter()
    host.take()
    return mods, setup, ended - started, (ended - started) * host.scale(started, ended)


class SetupSampler:
    """Repeats set-up between the timed loop's ops, evenly over ``seconds``.

    Each repetition re-imports ``freeq`` and rebuilds the workload's inputs;
    afterwards the modules the timed ops use are put back in ``sys.modules``
    (``cli`` imports from ``solver`` at call time) and the repetition's
    garbage is collected, so the ops run on the state they were built on.
    """

    def __init__(self, workload: str, seed: int, host: speed.Speed, first, seconds: float):
        self.workload, self.seed, self.host = workload, seed, host
        self.raw, self.times = [first[0]], [first[1]]  # seconds, reference seconds
        n = max(SETUP_MIN_REPEATS, min(SETUP_MAX_REPEATS, int(SETUP_SHARE * seconds / first[0])))
        self.due = [seconds * k / n for k in range(1, n)]

    def sample(self) -> None:
        kept = {n: m for n, m in sys.modules.items() if n == "freeq" or n.startswith("freeq.")}
        _, _, raw, scaled = set_up(self.workload, self.seed, self.host)
        self.raw.append(raw)
        self.times.append(scaled)
        for name in [n for n in sys.modules if n == "freeq" or n.startswith("freeq.")]:
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()

    def between(self, loop_s: float) -> None:
        """Called between ops with the loop's own time so far."""
        if self.due and loop_s >= self.due[0]:
            self.due.pop(0)
            self.sample()

    def finish(self) -> None:
        """Takes any set-up still due."""
        while self.due:
            self.due.pop(0)
            self.sample()


class Loop:
    """Runs passes over the op list and keeps every latency and outcome."""

    def __init__(self, ops, tracer=None, between=None):
        self.ops = ops
        self.tracer = tracer
        self.between = between  # called between ops with the loop's time
        self.started = time.perf_counter()
        self.paused = 0.0  # time spent in ``between``, not loop time
        self.samples: list[tuple[str, float]] = []
        self.started_at: list[float] = []  # clock reading at each sample's start
        self.outcomes: dict[str, int] = {wl.OK: 0, wl.UNRESOLVED: 0, wl.WRONG: 0}
        self.runs: dict[str, int] = {}  # per input: runs, and unresolved runs
        self.unresolved: dict[str, int] = {}
        self.stages: dict[str, str] = {}  # per unresolved input: the stage that tripped
        self.wrong: list[str] = []
        self.pass_times: list[float] = []

    def run_pass(self) -> None:
        clock = time.perf_counter
        total = 0.0
        for i, op in enumerate(self.ops):
            started = clock()
            try:
                result = op.call() if self.tracer is None else self.tracer.run_op(i, op.call)
            except Exception as exc:  # noqa: BLE001 - the check reports it
                result = exc
            latency = clock() - started
            total += latency
            self.samples.append((op.text, latency))
            self.started_at.append(started)
            outcome, why = op.check(result)
            self.outcomes[outcome] += 1
            self.runs[op.text] = self.runs.get(op.text, 0) + 1
            if outcome == wl.UNRESOLVED:
                self.unresolved[op.text] = self.unresolved.get(op.text, 0) + 1
                self.stages[op.text] = why
            elif outcome == wl.WRONG and len(self.wrong) < 20:
                self.wrong.append(f"{op.text}: {why}")
            if self.between is not None:
                paused = clock()
                self.between(paused - self.started - self.paused)
                self.paused += clock() - paused
        self.pass_times.append(total)

    def run_for(self, seconds: float) -> None:
        self.started, self.paused = time.perf_counter(), 0.0
        self.run_pass()
        while time.perf_counter() - self.started - self.paused < seconds:
            self.run_pass()

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    def unresolved_share(self) -> float:
        """Mean over distinct inputs of the share of their runs left unresolved."""
        return sum(self.unresolved.get(t, 0) / n for t, n in self.runs.items()) / len(self.runs)

    def stage_counts(self) -> dict[str, int]:
        """Distinct unresolved inputs per stage."""
        counts: dict[str, int] = {}
        for stage in self.stages.values():
            counts[stage] = counts.get(stage, 0) + 1
        return counts


def end_to_end(loop: Loop, setup: wl.Setup, sampler: SetupSampler,
               host: speed.Speed) -> tuple[dict, dict]:
    scaled = [(text, latency * host.scale(start, start + latency))
              for (text, latency), start in zip(loop.samples, loop.started_at)]
    times = measure.input_median(scaled)
    tail_p, tail_value = measure.tail(times.values())
    inputs_by_group: dict[str, set] = {}
    for op in setup.ops:
        inputs_by_group.setdefault(op.group, set()).add(op.text)
    values = {
        "setup_s": statistics.median(sampler.times),
        "ops_per_s": measure.pass_rate(times),
        "geomean_s": measure.geomean(times.values()),
        "resolved_share": 1.0 - loop.unresolved_share(),
    }
    for family in wl.FAMILIES:
        values[f"{family}_s"] = measure.group_time(times, sorted(inputs_by_group[family]))
    runs = loop.runs.values()
    details = {
        "p50_s": statistics.median(times.values()),
        "tail_s": tail_value,
        "tail_percentile": tail_p,
        "unresolved_share": loop.unresolved_share(),
        "setup_times_s": sampler.raw,
        "setup_times_reference_s": sampler.times,
        "reference_loop_s": [min(host.times), statistics.median(host.times), max(host.times)],
        "reference_loop_samples": len(host.times),
        "unscaled_ops_per_s": measure.pass_rate(measure.input_median(loop.samples)),
        "workload_s": setup.extra(times),
        "inputs": len(times),
        "inputs_per_family": {g: len(inputs_by_group[g]) for g in sorted(inputs_by_group)},
        "runs_per_input": [min(runs), max(runs)],
    }
    return values, details


def per_layer(loop: Loop, tracer: tracing.Tracer, reference_s: float) -> dict:
    values = tracing.layer_metrics(tracer, len(loop.pass_times))
    stages = loop.stage_counts()
    for stage in wl.DESCRIBE_STAGES:
        values[f"describe.unresolved.{stage}"] = stages.get(stage, 0)
    values["certify.unresolved.closure"] = stages.get("closure", 0)
    values["trace.overhead"] = statistics.mean(loop.pass_times) / reference_s
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    host = speed.Speed()
    try:
        mods, setup, *first_setup = set_up(args.workload, args.seed, host)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(setup.ops),
        "input_digest": wl.digest(setup.ops),
    }
    if args.trace:
        # Traced passes run every distinct input once, so layer figures are
        # per input set, whatever repetitions the timed workload makes.
        ops = setup.distinct()
        reference = Loop(ops)
        reference.run_pass()
        t = tracing.Tracer()
        namespaces = [m for n, m in sys.modules.items() if n == "freeq" or n.startswith("freeq.")]
        details["traced_callables"] = t.install(mods, namespaces)
        loop = Loop(ops, tracer=t)
        try:
            loop.run_for(args.seconds)
        finally:
            t.uninstall()
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        t.write(trace_path)
        values = per_layer(loop, t, reference.pass_times[0])
        units = dict(per_layer_names())
        details["counters"] = dict(t.counters)  # the bases of the per-layer ratios
        details["spans_kept"], details["spans_dropped"] = len(t.spans), t.dropped
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        attempted = reference.attempted + loop.attempted
        failed = reference.outcomes[wl.WRONG] + loop.outcomes[wl.WRONG]
        wrong = reference.wrong + loop.wrong
    else:
        sampler = SetupSampler(args.workload, args.seed, host, first_setup, args.seconds)

        def between(loop_s: float) -> None:
            host.maybe_take()
            sampler.between(loop_s)

        loop = Loop(setup.ops, between=between)
        loop.run_for(args.seconds)
        host.take()
        sampler.finish()
        values, more = end_to_end(loop, setup, sampler, host)
        details.update(more)
        units = dict(END_TO_END)
        attempted, failed, wrong = loop.attempted, loop.outcomes[wl.WRONG], loop.wrong

    details["passes"] = len(loop.pass_times)
    details["samples"] = len(loop.samples)
    details["unresolved_by_stage"] = loop.stage_counts()
    details["wrong"] = wrong
    print(json.dumps({"detail": details}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
