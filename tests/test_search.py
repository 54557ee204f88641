import random
import time

import pytest

from oracles import certified_pairings, rank2_cyclic_words
from polyw.constructors import nonpolygonality_follower_obstruction
from polyw.search import (
    ExhaustedWithin,
    Found,
    SearchBounds,
    TimedOut,
    decide_polygonal,
    enumerate_all,
    power_configs,
)
from polyw.words import CyclicWord, cyclic_word


@pytest.mark.parametrize("budget", [float("nan"), -1.0, float("-inf")])
def test_bounds_refuse_nan_and_negative_budgets(budget):
    with pytest.raises(ValueError, match="time budget"):
        SearchBounds(time_budget=budget)
    assert SearchBounds(time_budget=0.0).time_budget == 0.0


def test_power_configs_respect_parity_and_edges():
    w = cyclic_word("a b a b^2 a b^3")  # length 9
    configs = power_configs(w, SearchBounds(max_disks=2, max_edges=28, max_power=3))
    assert configs == [(2,), (1, 1)]  # odd totals dropped, 27-slot configs odd too


def test_commutator_found_one_disk():
    out = decide_polygonal(cyclic_word("a b a^-1 b^-1"), SearchBounds(max_disks=1, max_power=1))
    assert isinstance(out, Found)
    cert = out.certificate
    assert cert.chi == 0 and cert.m == 1 and cert.polygonal


def test_surface_relator_census_nonempty():
    certs = list(enumerate_all(cyclic_word("a^2 b^2"), SearchBounds(max_disks=1, max_power=1)))
    assert certs and all(c.polygonal for c in certs)


def test_bs_relator_found_within_small_bounds():
    out = decide_polygonal(cyclic_word("a (a^2)^b"), SearchBounds(max_disks=2, max_power=2))
    assert isinstance(out, Found)
    assert out.certificate.verify()


def test_positive_obstructed_word_exhausts():
    w = cyclic_word("a b a b^2 a b^3")
    out = decide_polygonal(w, SearchBounds(max_disks=2, max_edges=28, max_power=3))
    assert isinstance(out, ExhaustedWithin)


def test_proper_power_short_circuits():
    out = decide_polygonal(cyclic_word("abab", 2), SearchBounds())
    assert isinstance(out, Found) and out.certificate.declarative is not None
    assert list(enumerate_all(cyclic_word("abab", 2), SearchBounds())) == []


def test_single_generator_census_empty():
    # an a-only word admits only chi = m quotients
    assert list(enumerate_all(cyclic_word("a", 1), SearchBounds(max_disks=2, max_power=2))) == []


def test_fig_word_census_exact_profile():
    w = cyclic_word("a^2 (a^-1)^b a a^b")
    certs = list(enumerate_all(w, SearchBounds(max_disks=1, max_power=2)))
    assert certs
    assert {(c.chi, c.m, c.vertices) for c in certs} == {(-1, 1, 7)}


def test_found_certificates_pass_independent_certifier():
    for text in ["a b a^-1 b^-1", "a^2 b^2", "a (a^2)^b"]:
        out = decide_polygonal(cyclic_word(text), SearchBounds(max_disks=2, max_power=2))
        assert isinstance(out, Found)
        if out.certificate.declarative is None:
            assert out.certificate.verify()


def test_obstructed_words_never_found_small_bounds():
    bounds = SearchBounds(max_disks=2, max_edges=18, max_power=2)
    checked = 0
    for length in range(2, 7):
        for w in rank2_cyclic_words(length):
            from polyw.words import is_proper_power

            if is_proper_power(w):
                continue
            if nonpolygonality_follower_obstruction(w) is None:
                continue
            out = decide_polygonal(w, bounds)
            assert isinstance(out, ExhaustedWithin), str(w)
            checked += 1
    assert checked > 20


def test_time_budget_reports_timeout():
    # configuration (1,) exhausts in 144 nodes and the first certificate of
    # (2,) needs 5,142, so a deadline check at node 2048 of (2,) comes first
    w = cyclic_word("aaBabaaBBAAB")
    out = decide_polygonal(
        w, SearchBounds(max_disks=2, max_power=2, time_budget=1e-9)
    )
    assert isinstance(out, TimedOut)
    # the nodes of the configuration that timed out are counted too
    assert out.nodes >= 2048 and out.configs_done == 1
    # with a generous budget the same call does not time out
    out2 = decide_polygonal(w, SearchBounds(max_disks=1, max_power=1, time_budget=60))
    assert not isinstance(out2, TimedOut)


def test_enumerate_all_ends_quietly_at_the_deadline():
    certs = list(enumerate_all(cyclic_word("aaBabaaBBAAB"), SearchBounds(time_budget=1e-9)))
    assert all(cert.verify() for cert in certs)


def test_certificate_found_before_the_deadline_is_kept():
    # the search reaches its first certificate in about 0.1 s, well inside
    # the budget, and returns it without listing the other completions
    w = cyclic_word("aaBabaaBBAAB")
    out = decide_polygonal(w, SearchBounds(max_disks=2, max_power=2, time_budget=2))
    assert isinstance(out, Found)
    assert out.certificate.verify()


@pytest.mark.parametrize(
    "text", ["a (a^2)^b", "a^2 b^2", "a b a^-1 b^-1", "a^2 (a^-1)^b a a^b"]
)
def test_decide_returns_first_certificate_of_enumeration(text):
    w = cyclic_word(text)
    bounds = SearchBounds(max_disks=2, max_power=2)
    first = next(enumerate_all(w, bounds))
    assert decide_polygonal(w, bounds).certificate.to_json_dict() == first.to_json_dict()


def test_timeout_bounded_on_long_word():
    # a node of this 1200-slot search scans hundreds of candidate partners,
    # so the clock is read by work done as well as by nodes
    rng = random.Random(1200)
    letters = [1]
    while len(letters) < 1199:
        letters.append(rng.choice([x for x in (1, -1, 2, -2) if x != -letters[-1]]))
    letters.append(2 if letters[-1] != -2 else -2)
    w = CyclicWord(2, tuple(letters))
    start = time.monotonic()
    out = decide_polygonal(w, SearchBounds(max_disks=1, max_power=1, time_budget=0.5))
    assert isinstance(out, TimedOut)
    assert time.monotonic() - start < 2.5


ORACLE_CASES = [
    ("a^2 (a^-1)^b a a^b", SearchBounds(max_disks=1, max_power=2)),
    ("a b a^-1 b^-1", SearchBounds(max_disks=2, max_power=2)),  # reaches (2, 2)
    ("a^2 b^2", SearchBounds(max_disks=2, max_power=2)),
    ("a b a b^-1", SearchBounds(max_disks=2, max_power=2)),
    ("a (a^2)^b", SearchBounds(max_disks=2, max_power=2, max_edges=10)),
    ("a b c a^-1 b^-1 c^-1", SearchBounds(max_disks=1, max_power=1)),
]


@pytest.mark.parametrize("text,bounds", ORACLE_CASES)
def test_pruned_search_matches_brute_force(text, bounds):
    w = cyclic_word(text)
    expected = [
        cert.to_json_dict()
        for powers in power_configs(w, bounds)
        for cert in certified_pairings(w, powers)
    ]
    assert expected
    assert [cert.to_json_dict() for cert in enumerate_all(w, bounds)] == expected
    assert decide_polygonal(w, bounds).certificate.to_json_dict() == expected[0]
