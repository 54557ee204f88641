import itertools
from collections import Counter

import pytest

from oracles import cycle_cover_lp, random_cyclic_words, rank2_cyclic_words
from polyw import cyclecover
from polyw.cli import check_polygonal
from polyw.constructors import nonpolygonality_follower_obstruction
from polyw.cyclecover import lp_dual, verify_dual
from polyw.search import ExhaustedWithin, Found, SearchBounds, decide_polygonal
from polyw.whitehead import whitehead_edges, whitehead_graph
from polyw.words import cyclic_word, is_proper_power, letter_key, word_key


def _rank2_words(max_length):
    """The rank-2 cyclic words of length 1..max_length that are not
    proper powers."""
    for length in range(1, max_length + 1):
        for w in rank2_cyclic_words(length):
            if not is_proper_power(w):
                yield w


RANK2_UP_TO_8 = [w for w in _rank2_words(8) if len(w) >= 2]


def test_fires_exactly_on_the_follower_obstructed_rank2_words():
    fired = {w for w in RANK2_UP_TO_8 if lp_dual(w) is not None}
    obstructed = {w for w in RANK2_UP_TO_8 if nonpolygonality_follower_obstruction(w)}
    assert len(RANK2_UP_TO_8) == 1316
    assert fired == obstructed and len(fired) == 124
    assert all(verify_dual(w, lp_dual(w)) for w in fired)
    # with no follower rung in the ladder, the cycle-cover rung answers them
    for w in fired:
        verdict = check_polygonal(w)
        assert (verdict.status, verdict.exit_code) == ("not-polygonal", 1), str(w)
        assert verdict.payload["evidence"] == "cycle-cover-lp", str(w)
        assert verify_dual(w, verdict.payload["dual"]), str(w)


def test_fired_words_exhaust_the_search():
    # at 2 disks and power 2 the 16 fired rank-2 words of length 6 take
    # 23 s to exhaust, and those of length 7 and 8 run past 3 s each
    fired = [w for w in _rank2_words(5) if lp_dual(w) is not None]
    fired += [w for w in random_cyclic_words(3, 6, 30, 6) if lp_dual(w) is not None]
    assert len(fired) > 40
    for w in fired:
        outcome = decide_polygonal(w, SearchBounds(max_disks=2, max_power=2))
        assert isinstance(outcome, ExhaustedWithin), str(w)


CLOSED_FORM_WORDS = [
    list(_rank2_words(7)),
    random_cyclic_words(3, 6, 60, 36) + random_cyclic_words(3, 8, 40, 38)
    + random_cyclic_words(3, 10, 10, 310),
    random_cyclic_words(4, 8, 10, 48),
]
CLOSED_FORM_IDS = ["rank2-len1-7", "rank3-len6-10", "rank4-len8"]


@pytest.mark.parametrize("words", CLOSED_FORM_WORDS, ids=CLOSED_FORM_IDS)
def test_closed_form_matches_the_exact_lp(words):
    for w in words:
        if is_proper_power(w):
            continue
        optimum = cycle_cover_lp(w)
        assert (lp_dual(w) is not None) == (optimum is None or optimum <= 0), str(w)


PAPER_POSITIVE = [
    "a^6 b^-3 c^5 b^4 c^-7",
    "a^3 b^2 a^-2 b^-3",
    "a^2 (a^3)^b",
    "a (a^2)^b",
    "a^3 (a)^b",
    "a^2 (a^-1)^b a a^b",
    "a^2 (a^3)^b a^3 (a^2)^b a (a^5)^b a^4 (a)^b",
]

# words whose search finds a certificate, among them the six of the
# seeded rank-3 length-6 benchmark pool where the LP is silent
FOUND = [
    "a b a^-1 b^-1", "a^2 b^2", "a b a b^-1", "a b c a^-1 b^-1 c^-1", "aaBabaaBBAAB",
    "AACCBB", "aBaCbc", "aCaCBB", "AAcBBC", "ABCACb", "aBcBac",
]


@pytest.mark.parametrize("words", CLOSED_FORM_WORDS, ids=CLOSED_FORM_IDS)
def test_corner_pairs_count_the_whitehead_graph(words):
    for w in words:
        edges = Counter(tuple(sorted(e, key=letter_key)) for e in whitehead_graph(w))
        assert whitehead_edges(w) == sorted(
            edges.items(), key=lambda item: word_key(item[0])), str(w)


@pytest.mark.parametrize("text", PAPER_POSITIVE)
def test_silent_on_the_paper_positive_examples(text):
    assert lp_dual(cyclic_word(text)) is None


def test_silent_on_the_isolated_b_suite():
    count = 0
    for length in (1, 2):
        for exps in itertools.product([2, 3, -2, -3], repeat=2 * length):
            text = " ".join("a^%d (a^%d)^b" % (exps[2 * i], exps[2 * i + 1]) for i in range(length))
            assert lp_dual(cyclic_word(text)) is None, text
            count += 1
    assert count == 272


@pytest.mark.parametrize("text", FOUND)
def test_silent_where_the_search_finds_a_certificate(text):
    w = cyclic_word(text)
    assert isinstance(decide_polygonal(w, SearchBounds(max_disks=2, max_power=2)), Found)
    assert lp_dual(w) is None


def test_forest_gives_the_zero_dual():
    dual = lp_dual(cyclic_word("aabccc"))
    assert dual == {"aA": "0/1", "aB": "0/1", "Ac": "0/1", "bC": "0/1", "cC": "0/1"}


def test_tampered_dual_fails_verification():
    w = cyclic_word("AccbbC")  # one dart cycle, through bB, bc and Bc
    dual = lp_dual(w)
    assert dual == {"aC": "-3/1", "AC": "0/1", "bB": "1/1", "bc": "1/1", "Bc": "1/1", "cC": "0/1"}
    assert verify_dual(w, dual)
    for name, value in [
        ("aC", "-2/1"),  # m . y > 0
        ("bc", "-2/1"),  # the cycle's constraint fails
        ("bB", "zero"),
        ("ab", "0/1"),  # not a corner pair of w
    ]:
        assert not verify_dual(w, dict(dual, **{name: value})), name
    assert not verify_dual(w, None)
    assert not verify_dual(cyclic_word("aBaCbc"), dual)


def test_loose_pair_needs_a_nonnegative_dual():
    w = cyclic_word("aabccc")  # cC carries two positions
    assert verify_dual(w, {"aA": "-1/1", "cC": "0/1"})
    assert not verify_dual(w, {"aA": "1/1", "cC": "-1/2"})


def test_over_the_enumeration_bound_the_rung_is_skipped(monkeypatch):
    w = cyclic_word("AccbbC")
    dual = lp_dual(w)
    assert verify_dual(w, dual)
    monkeypatch.setattr(cyclecover, "_MAX_PATHS", 0)
    assert lp_dual(w) is None
    assert not verify_dual(w, dual)
    verdict = check_polygonal(w, bounds=SearchBounds(max_disks=2, max_power=2))
    assert verdict.status == "inconclusive"


def test_inconclusive_word_has_positive_optimum():
    w = cyclic_word("a^2 b^2 c^3 b^-3")
    assert cycle_cover_lp(w) == 2
    assert lp_dual(w) is None


def test_check_reports_the_lp_after_the_follower_obstruction():
    # the follower-obstructed example of the paper gets the LP's evidence
    w = cyclic_word("a b a b^2 a b^3")
    payload = check_polygonal(w).payload
    assert payload["evidence"] == "cycle-cover-lp" and verify_dual(w, payload["dual"])
    verdict = check_polygonal(cyclic_word("aabccc"))
    assert verdict.status == "not-polygonal" and verdict.exit_code == 1
    assert verdict.payload["evidence"] == "cycle-cover-lp"
    search_only = check_polygonal(cyclic_word("aabccc"), "search", SearchBounds())
    assert search_only.payload["search"] == "exhausted"
