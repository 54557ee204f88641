import itertools
import math
import random

from hypothesis import given, strategies

from oracles import cyclic_run_stats
from polyw.invariants import is_simple_height_one
from polyw.stats import (
    RNG_ALGORITHM,
    TrialReport,
    _sample_rng,
    run_trials,
    sample_height_one,
    stats_of_bits,
)
from polyw.words import cyclic_word


def test_degenerate_all_a():
    st = stats_of_bits([0] * 12)
    assert st.degenerate and st.l == 0.5
    assert (st.p, st.q, st.p_prime, st.q_prime, st.s) == (12, 0, 0, 0, 1)
    assert st.condition  # vacuous: 0 <= 0 and 0 <= 144


def test_degenerate_all_b():
    st = stats_of_bits([1] * 9)
    assert st.degenerate and (st.p, st.q) == (0, 9)


def test_alternating_word():
    n = 10
    st = stats_of_bits([0, 1] * (n // 2))
    assert (st.s, st.l, st.p, st.q) == (n, n / 2, n // 2, n // 2)
    assert st.p_prime == st.l and st.q_prime == st.l


def test_single_block_word():
    st = stats_of_bits([0, 0, 0, 1, 1])
    assert (st.p, st.q, st.s, st.l, st.p_prime, st.q_prime) == (3, 2, 2, 1.0, 0, 0)


def test_cyclic_run_merge():
    # a b b a: cyclically one a-run of length 2
    st = stats_of_bits([0, 1, 1, 0])
    assert st.l == 1.0 and st.p_prime == 0 and st.s == 3


@given(strategies.lists(strategies.integers(0, 1), min_size=2, max_size=64))
def test_stats_of_bits_matches_run_counter(bits):
    got = stats_of_bits(bits)
    assert got.word == "".join("ab"[b] for b in bits) and got.n == len(bits)
    assert (got.p, got.q, got.p_prime, got.q_prime, got.l, got.s) == cyclic_run_stats(bits)
    assert got.degenerate == (len(set(bits)) == 1)


def test_sample_reproducible():
    a = sample_height_one(40, _sample_rng(9, 0))
    b = sample_height_one(40, _sample_rng(9, 0))
    assert a == b
    c = sample_height_one(40, _sample_rng(9, 1))
    assert a != c  # overwhelmingly


def test_run_trials_deterministic():
    r1 = run_trials(60, 400, seed=21)
    r2 = run_trials(60, 400, seed=21)
    assert r1 == r2
    assert r1.algorithm == RNG_ALGORITHM


def test_single_sample_trial():
    r = run_trials(30, 1, seed=2)
    assert r.samples == 1 and r.p_condition in (0.0, 1.0)


def test_binomial_mean_bands():
    n, samples = 120, 3000
    r = run_trials(n, samples, seed=11)
    mean_expected = (n - 1) / 2
    sigma = math.sqrt(n - 1) / 2
    assert abs(r.mean_runs - mean_expected) <= 4 * sigma / math.sqrt(samples)
    # variance of s-1 should be near (n-1)/4
    assert abs(r.var_runs - (n - 1) / 4) <= 6


def test_failure_probability_decays():
    lo = run_trials(10, 3000, seed=3)
    hi = run_trials(40, 3000, seed=3)
    se = math.sqrt(max(lo.p_fail_q * (1 - lo.p_fail_q), 1e-9) / 3000)
    assert hi.p_fail_q <= lo.p_fail_q + se
    assert lo.p_fail_q > 0  # non-vacuous at small length


def test_csv_row_shape():
    r = run_trials(20, 50, seed=1)
    header = TrialReport.csv_header().split(",")
    row = r.to_csv_row().split(",")
    assert len(header) == len(row) == 8


def _pushed_forward(bits):
    """a -> a, b -> a^b applied to the word of ``bits``, read from an a-run
    start: a^{r_1} (a^{s_1})^b a^{r_2} (a^{s_2})^b ... in text."""
    k = next(i for i in range(len(bits)) if bits[i] == 0 and bits[i - 1] == 1)
    runs = [len(list(run)) for _bit, run in itertools.groupby(bits[k:] + bits[:k])]
    return cyclic_word(" ".join("a^%d (a^%d)^b" % rs for rs in zip(runs[0::2], runs[1::2])))


def test_condition_is_the_height_one_inequality_of_the_pushed_forward_word():
    rng = random.Random(2102)
    for _ in range(2000):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(2, 16))]
        if len(set(bits)) < 2:
            continue
        shape = is_simple_height_one(_pushed_forward(bits))
        st = stats_of_bits(bits)
        assert (shape.p, shape.q, shape.p_prime, shape.q_prime) == (
            st.p, st.q, st.p_prime, st.q_prime), bits
        assert st.condition == shape.inequality(), bits
