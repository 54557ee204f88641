"""Tests of the benchmark's own helpers.

Run from the root of the repository:  python3 -m pytest bench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
import polyw.complexes  # noqa: E402
import polyw.whitehead  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from polyw.invariants import (  # noqa: E402
    has_no_isolated_generators,
    height_one_inequality,
    is_simple_height_one,
    isolated_b_sign_condition,
    rho,
    tn_membership,
)
from polyw.words import cyclic_word  # noqa: E402


def _dump(ops):
    return json.dumps([[list(op.argv), op.family, op.expect] for op in ops])


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_byte_identical_ops(workload):
    make = corpus.WORKLOADS[workload]
    for pass_index in (0, 1):
        assert _dump(make(5, pass_index)) == _dump(make(5, pass_index))
    assert _dump(make(5, 0)) != _dump(make(6, 0))
    assert _dump(make(5, 0)) != _dump(make(5, 1))


@pytest.mark.parametrize("workload", ["search-r2", "search-r3", "tools"])
def test_seeds_change_spelling_not_the_pool(workload):
    """Seeds respell the same pool: same cyclic words, other strings."""
    make = corpus.WORKLOADS[workload]
    a = [op for op in make(1, 0) if op.kind != "stats"]
    b = [op for op in make(2, 0) if op.kind != "stats"]
    assert sorted(op.family for op in a) == sorted(op.family for op in b)
    assert [op.argv[1] for op in a] != [op.argv[1] for op in b]
    assert sorted(str(cyclic_word(op.argv[1])) for op in a) == sorted(
        str(cyclic_word(op.argv[1])) for op in b)
    for op in a:
        assert len(cyclic_word(op.argv[1])) == int(op.family.rsplit("len", 1)[1])


def test_ladder_seeds_respell_the_same_words():
    a, b = corpus.ladder_ops(1, 0), corpus.ladder_ops(2, 0)
    assert [op.argv[1] for op in a] != [op.argv[1] for op in b]
    assert sorted((op.family, str(cyclic_word(op.argv[1]))) for op in a) == sorted(
        (op.family, str(cyclic_word(op.argv[1]))) for op in b)


def test_respelling_keeps_the_cyclic_word():
    rng = random.Random(0)
    for _ in range(200):
        w = corpus.random_cyclic_word(rng, 3, 9)
        assert {abs(x) for x in w} == {1, 2, 3}
        assert cyclic_word(corpus.letters_text(corpus.respell(rng, w))) == cyclic_word(
            corpus.letters_text(w))


def test_ladder_words_satisfy_their_theorems():
    rng = random.Random(3)
    for n in (12, 13, 48, 49):
        w = cyclic_word(corpus.tn_word(rng, n))
        assert w.rank == 3 and has_no_isolated_generators(w)
        assert len(rho(w)) == n
        assert tn_membership(rho(w)) is not None
    for family, n, _count in corpus.LADDER:
        w = cyclic_word(corpus.GENERATORS[family](rng, n))
        if family == "isolated-b":
            assert isolated_b_sign_condition(w) is True
        elif family == "height-one":
            assert is_simple_height_one(w) is not None and height_one_inequality(w)


def test_interleave_keeps_every_op_in_order():
    out = corpus.interleave(list("abcdef"), [1, 2, 3])
    assert [x for x in out if isinstance(x, str)] == list("abcdef")
    assert [x for x in out if isinstance(x, int)] == [1, 2, 3]
    assert out == ["a", 1, "b", "c", 2, "d", "e", 3, "f"]


def test_tail_is_highest_sample_with_ten_beyond():
    assert run.tail(list(range(1, 21))) == (50.0, 10)
    assert run.tail(list(range(100, 0, -1))) == (90.0, 90)
    assert run.tail([3, 1, 2]) == (100.0, 3)
    # ten per pass beyond: the same percentile for one pass or two
    assert run.tail(list(range(1, 41)), passes=2) == (50.0, 20)
    assert run.tail(list(range(1, 21)), passes=2) == (100.0, 20)


def _result(argv, code, data=None, error=None, expect=None):
    op = corpus.Op(tuple(argv), "test", expect)
    return run.Result(op, 0.01, code, json.dumps(data) if data is not None else "", error)


def test_failure_counting():
    raised = _result(["check", "a b"], None, error="ResourceCapExceeded: cap")
    bare_no = _result(["check", "a b"], 1, {"status": "not-polygonal", "result": {}})
    mismatch = _result(["check", "a b"], 0, {"status": "inconclusive", "result": {}})
    paper = _result(["check", "a b"], 2, {"status": "inconclusive", "result": {}},
                    expect="polygonal")
    fine = _result(["check", "a b"], 2, {"status": "inconclusive", "result": {"search": "x"}})
    bad_stats = _result(["stats"], 0, {"N": corpus.STATS_LENGTH,
                                       "samples": corpus.STATS_SAMPLES, "p_condition": 1.5,
                                       "p_fail_q": 0.0, "p_fail_p": 0.0})
    results = [raised, bare_no, mismatch, paper, fine, bad_stats]
    for r in results:
        run.check_result(r, polyw)
    assert [r.failure is not None for r in results] == [True, True, True, True, False, True]
    assert [r.wrong for r in results] == [False, False, True, True, False, True]
    line = run.result_line(results, {})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 6, 5)
    line = run.result_line([raised, bare_no, fine], {})
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 3, 2)


def test_polygonal_certificate_is_reverified():
    cli = run.load_cli()
    good = run.run_op(cli, corpus.Op(("check", "a (a^2)^b"), "test"))
    run.check_result(good, polyw)
    assert good.failure is None and good.resolved
    data = good.data
    data["result"]["verdict"]["chi"] -= 2
    forged = run.Result(good.op, good.seconds, 0, json.dumps(data))
    run.check_result(forged, polyw)
    assert forged.wrong


def test_scaling_to_nominal_speed():
    op = corpus.Op(("check", "a b"), "test")
    done = '{"status": "polygonal", "result": {}}'
    timed_out = '{"status": "inconclusive", "result": {"search": "timed-out"}}'
    slow = [2 * speed.NOMINAL_S] * 3
    assert run.Result(op, 1.0, 0, done).scaled == 1.0
    assert run.Result(op, 1.0, 0, done, probes=slow).scaled == 0.5
    assert run.Result(op, 2.0, 2, timed_out, probes=slow).scaled == 2.0


def test_sampler_probes_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3 and sampler.spent > 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, None, 0, None],
        ["inner", 1.0, 4.0, 0, 0, None],
        ["inner", 5.0, 6.0, 0, 0, None],
        ["leaf", 2.0, 3.0, 1, 0, None],
    ]
    assert dict(tracer.self_times()) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_tracer_restores_patched_sites():
    import polyw.cli

    original = polyw.cli.rho
    tracer = tracing.Tracer()
    tracer.install([(polyw.cli, "rho", "invariants.rho", None)])
    assert polyw.cli.rho is not original
    polyw.cli.rho(cyclic_word("a^2 b^2"))
    tracer.uninstall()
    assert polyw.cli.rho is original
    assert [s[0] for s in tracer.spans] == ["invariants.rho"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ops = [corpus.Op(("check", "a b"), "x"), corpus.Op(("diskbusting", "a b"), "x"),
           corpus.Op(("stats",), "x")]
    outputs = ['{"status": "polygonal", "result": {}}', '{"diskbusting": true}', "{}"]
    passes = [[run.Result(op, 0.01, 0, out) for op, out in zip(ops, outputs)]]
    metrics, _notes = run.end_to_end(passes, 40.0, 0.2)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    assert metrics["resolved_frac"]["value"] == 1.0
    figures, _note = run.tools_figures(passes)
    assert figures["mc_samples_per_s"]["value"] == corpus.STATS_SAMPLES / 0.01
    layers = run.per_layer(tracing.Tracer(), 1, 0.0)
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    assert all(layers[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
