"""Tests for the benchmark's own code (not part of the library suite).

Run with ``python -m pytest bench -q`` from the repository root.
"""

import json
import random
import sys

import pytest

import measure
import run
import speed
import tracer as tracing
import workloads as wl


@pytest.fixture(scope="module")
def mods():
    return run.import_freeq()


# -- tail percentile ----------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_values_beyond():
    values = list(range(1, 24))
    random.Random(0).shuffle(values)
    # 23 values: p56.5, rank 13, exactly ten beyond.
    assert measure.tail(values) == (100.0 * 13 / 23, 13)
    assert measure.tail(range(1, 12)) == (100.0 / 11, 1)
    p, value = measure.tail(range(1, 319))
    assert value == 308 and 96.8 < p < 96.9
    assert measure.tail(range(1, 101)) == (90.0, 90)


def test_tail_falls_back_to_the_median_for_ten_values_or_fewer():
    assert measure.tail([5, 1, 3, 2, 4, 7, 6]) == (50.0, 4)
    assert measure.tail(range(1, 11)) == (50.0, 5)


def test_per_input_statistics_weigh_each_input_once():
    # "a" ran three times, "b" once: each counts once, at its median.
    times = measure.input_median([("a", 2.0), ("a", 1.0), ("a", 3.0), ("b", 4.0)])
    assert times == {"a": 2.0, "b": 4.0}
    assert measure.geomean(times.values()) == pytest.approx(8 ** 0.5)
    assert measure.pass_rate(times) == pytest.approx(2 / 6.0)


def test_group_time_averages_each_inputs_median_time():
    times = measure.input_median([("a", 2.0), ("a", 1.0), ("a", 9.0), ("b", 10.0)])
    assert times == {"a": 2.0, "b": 10.0}
    assert measure.group_time(times, ["a", "b"]) == 6.0


def test_loop_counts_unresolved_per_distinct_input():
    def op(text, outcome, stage=""):
        return wl.Op(group="g", text=text, call=lambda: None, check=lambda _: (outcome, stage))

    # "cheap" runs three times per pass, "big" once: each is one input.
    ops = [op("cheap", wl.OK)] * 3 + [op("big", wl.UNRESOLVED, "partitions")]
    loop = run.Loop(ops)
    loop.run_pass()
    loop.run_pass()
    assert loop.attempted == 8
    assert loop.unresolved_share() == 0.5
    assert loop.stage_counts() == {"partitions": 1}
    assert wl.Setup(ops=ops).distinct() == [ops[0], ops[3]]


def test_speed_scales_by_the_reference_samples_around_a_call():
    host = speed.Speed()
    host.at = [0.0, 1.0, 2.0, 5.0]
    host.times = [0.004, 0.002, 0.006, 0.001]
    w = speed.WINDOW_S
    # The samples from w before the start to w after the end.
    assert host.scale(1.0 + w, 2.0 - w + 0.5) == pytest.approx(speed.REFERENCE_S / 0.004)
    assert host.scale(2.0 + w, 5.0 - w) == pytest.approx(speed.REFERENCE_S / 0.0035)
    # None in the window: the nearest one after it, or the last.
    assert host.scale(3.0 + w, 3.5) == pytest.approx(speed.REFERENCE_S / 0.001)
    assert host.scale(9.0, 9.5) == pytest.approx(speed.REFERENCE_S / 0.001)


def test_setup_repetition_restores_the_modules_the_ops_use(mods):
    host = speed.Speed()
    sampler = run.SetupSampler("describe", 1, host, (1.0, 1.0), seconds=1.0)
    assert sampler.due == [k / run.SETUP_MIN_REPEATS for k in range(1, run.SETUP_MIN_REPEATS)]
    before = {n: m for n, m in sys.modules.items() if n.startswith("freeq")}
    sampler.between(0.1)
    assert len(sampler.times) == 1
    sampler.between(0.2)
    assert len(sampler.times) == 2 and sampler.times[1] > 0
    assert {n: m for n, m in sys.modules.items() if n.startswith("freeq")} == before


# -- self time on synthetic spans ---------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf = t.wrap("m.leaf", leaf)

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    middle = t.wrap("m.middle", middle)

    def outer():
        clock.advance(3.0)
        middle()

    t.run_op(7, outer)
    totals = t.totals()
    assert totals["m.leaf"] == (2, 4.0)
    assert totals["m.middle"] == (1, 1.5)
    assert totals[tracing.OP_SPAN] == (1, 3.0)

    by_name = {t.names[s[1]]: s for s in t.spans}
    op_span, middle_span = by_name[tracing.OP_SPAN], by_name["m.middle"]
    assert op_span[2:4] == (0.0, 8.5)
    assert op_span[4] == 0
    assert middle_span[4] == op_span[0]
    leaves = [s for s in t.spans if t.names[s[1]] == "m.leaf"]
    assert [s[2:4] for s in leaves] == [(4.0, 6.0), (6.5, 8.5)]
    assert all(s[4] == middle_span[0] and s[5] == 7 for s in leaves)
    assert t.dropped == 0


def test_span_cap_keeps_shallow_spans_and_exact_totals():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock, max_spans=2)
    leaf = t.wrap("m.leaf", lambda: clock.advance(1.0))
    middle = t.wrap("m.middle", lambda: [leaf() for _ in range(5)])
    t.run_op(0, middle)
    assert t.totals()["m.leaf"] == (5, 5.0)
    assert t.totals()["m.middle"] == (1, 0.0)
    kept = sorted(t.names[s[1]] for s in t.spans)
    assert kept == sorted([tracing.OP_SPAN, "m.leaf", "m.leaf", "m.middle"])
    assert t.dropped == 3


def test_self_time_survives_exceptions():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def fails():
        clock.advance(1.0)
        raise ValueError("boom")

    fails = t.wrap("m.fails", fails)
    with pytest.raises(ValueError):
        t.run_op(0, fails)
    assert t.totals()["m.fails"] == (1, 1.0)
    assert t.totals()[tracing.OP_SPAN] == (1, 0.0)
    assert not t.active("m.fails")


# -- the tracer on the library ------------------------------------------------


def test_tracer_counts_evaluate_called_from_oracle(mods):
    words, oracle = mods["words"], mods["oracle"]
    original = words.evaluate
    eq = wl.equation(mods, "[x,y]", "[a,b]")
    t = tracing.Tracer()
    namespaces = list(mods.values())
    t.install(mods, namespaces)
    try:
        assert oracle.evaluate is not original
        t.run_op(0, lambda: oracle.evaluate("xy", "a", "b"))
        assert t.totals()["words.evaluate"][0] == 1
        result = t.run_op(1, lambda: oracle.brute_force_solutions(eq, 2))
    finally:
        t.uninstall()
    ball = words.count_words_upto(eq.alphabet, 2)
    assert t.counters["oracle.pairs_tested"] == ball * ball
    assert t.totals()["solver.Equation.holds_for"][0] == ball * ball
    assert t.totals()["words.evaluate"][0] == 1 + ball * ball
    assert t.counters["oracle.solutions"] == len(result.solutions)
    assert oracle.evaluate is original and words.evaluate is original


def test_uninstall_restores_methods(mods):
    solver = mods["solver"]
    original = solver.Equation.__dict__["holds_for"]
    t = tracing.Tracer()
    t.install(mods, list(mods.values()))
    assert solver.Equation.__dict__["holds_for"] is not original
    t.uninstall()
    assert solver.Equation.__dict__["holds_for"] is original


# -- seeded inputs ------------------------------------------------------------


def test_planted_equations_follow_the_seed_and_their_slots(mods):
    words = mods["words"]
    first = wl.planted_equations(words, 11)
    assert first == wl.planted_equations(words, 11)
    assert first != wl.planted_equations(words, 12)
    classes = {name: wl.word_class(words, rep) for name, rep in wl.CLASS_REPRESENTATIVES.items()}
    assert len(first) == len(wl.PLANTED_SLOTS)
    for (cls, length, shape), (_, w, u, pair) in zip(wl.PLANTED_SLOTS, first):
        assert w in classes[cls]
        assert u == words.evaluate(w, *pair)
        assert len(u) == length
        if shape == "power":
            assert words.primitive_root(u)[1] > 1
        elif shape == "free":
            assert words.primitive_root(u)[1] == 1


def test_word_classes_partition_the_length_four_words(mods):
    words, autf2 = mods["words"], mods["autf2"]
    classes = [wl.word_class(words, rep) for rep in wl.CLASS_REPRESENTATIVES.values()]
    members = [w for c in classes for w in c]
    assert len(members) == len(set(members)) == 48
    assert all(autf2.is_primitive(w) is None for w in members)


def test_generate_requests_follow_the_seed():
    symbols = {"qh": "cdepqr", "squares": "ctp", "parametric": "", "rank1": "", "trivial": ""}
    first = wl.generate_requests(symbols, 5)
    assert first == wl.generate_requests(symbols, 5)
    assert first != wl.generate_requests(symbols, 6)
    assert len(first) == len(wl.generate_requests(symbols, 6))


def test_op_digest_depends_only_on_the_seed(mods):
    a = wl.digest(wl.setup_describe(mods, 3).ops)
    assert a == wl.digest(wl.setup_describe(mods, 3).ops)
    assert a != wl.digest(wl.setup_describe(mods, 4).ops)


def test_stage_of_reads_the_budget_notes():
    assert wl.stage_of("more than 100000 cycle partitions") == "partitions"
    assert wl.stage_of("orbit search visited 10 cyclic forms without a verdict") == "orbit_search"
    assert wl.stage_of("edge-splitting search tested 1 bases without a verdict") == "edge_splitting"
    assert wl.stage_of("orbit minimization kept improving at the widest ball") == "orbit_minimisation"


def _solve_output(**fields):
    lines = ["freeq/1", "command: solve", "alphabet: ab"]
    return "\n".join(lines + [f"{k.replace('_', '.')}: {v}" for k, v in fields.items()])


def test_describe_check_rejects_empty_for_a_planted_equation(mods):
    check = wl._describe_check(mods, planted=("ab", "a"))
    text = _solve_output(lhs="xxyy", rhs="abababaa", status="ok", kind="empty", formula="empty")
    assert check((0, text))[0] == wl.WRONG
    assert wl._describe_check(mods)((0, text))[0] == wl.OK


def test_describe_check_rejects_rank_one_only_for_a_rank_two_planted_pair(mods):
    text = _solve_output(lhs="xxyy", rhs="aaaa", status="ok", kind="rank1-only",
                         formula="power-lattice", rank1_root="a", rank1_base="0 2",
                         rank1_direction="1 -1")
    assert wl._describe_check(mods, planted=("a", "a"))((0, text))[0] == wl.OK
    assert wl._describe_check(mods, planted=("a", "b"))((0, text))[0] == wl.WRONG


@pytest.mark.parametrize("family", [
    {"kind": "rank1-only", "rank1_root": "a", "rank1_base": "0 2", "rank1_direction": "1 -1"},
    {"kind": "trivial-rhs", "lattice.0": "1 -1"},
    {"kind": "parametric", "parametric.x": "xY", "parametric.y": "y"},
])
def test_describe_check_tests_the_printed_families(mods, family):
    lhs, rhs = {"rank1-only": ("xxyy", "aaaa"), "trivial-rhs": ("xxyy", "1"),
                "parametric": ("xy", "ab")}[family["kind"]]
    good = {k.replace(".", "_"): v for k, v in family.items()}
    text = _solve_output(lhs=lhs, rhs=rhs, status="ok", formula="-", **good)
    assert wl._describe_check(mods)((0, text)) == (wl.OK, "")
    # A wrong family: the second field's value shifted.
    key = [k for k in good if k != "kind"][-1]
    bad = dict(good, **{key: {"1 -1": "1 1", "y": "yy"}[good[key]]})
    text = _solve_output(lhs=lhs, rhs=rhs, status="ok", formula="-", **bad)
    assert wl._describe_check(mods)((0, text))[0] == wl.WRONG


# -- the metric names BENCHMARK.json declares ---------------------------------


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
