import random

import pytest

from polyw.words import CyclicWord, Relabeling, cyclic_word, transform
from polyw.whitehead import (
    OrbitCapExceeded,
    all_first_kind_moves,
    all_second_kind_moves,
    cut_vertex_prescreen,
    equivalent,
    is_diskbusting,
    minimal_orbit,
    minimize,
)


def test_minimize_example_3_1():
    trace = minimize(cyclic_word("a b a b^2 a b^3"))
    assert len(trace.final) == 5


def test_minimize_commutator_already_minimal():
    w = cyclic_word("a b a^-1 b^-1")
    # oracle: no multiplier move shortens it
    assert all(len(m.apply(w)) >= len(w) for m in all_second_kind_moves(2))
    trace = minimize(w)
    assert trace.final == w and not trace.steps


def test_minimize_basis_element_to_length_one():
    assert len(minimize(cyclic_word("a^2 b^2 c^3 b^-3")).final) == 1


def test_minimize_trace_replays():
    for text in ["a b a b^2 a b^3", "a^2 b^2 c^3 b^-3", "a (a^2)^b"]:
        trace = minimize(cyclic_word(text))
        assert trace.replay() == trace.final


def test_minimize_never_lengthens_and_is_stable():
    rng = random.Random(3)
    for _ in range(25):
        letters = []
        for _ in range(rng.randint(1, 8)):
            letters.append(rng.choice([1, -1, 2, -2]))
        try:
            w = CyclicWord(2, tuple(letters))
        except ValueError:
            continue
        trace = minimize(w)
        assert len(trace.final) <= len(w)
        again = minimize(trace.final)
        assert len(again.final) == len(trace.final)


def test_minimal_orbit_length_one_rank_two():
    orbit = minimal_orbit(minimize(cyclic_word("a", 2)).final)
    assert orbit == frozenset({cyclic_word("a", 2), cyclic_word("b", 2)})


def test_minimal_orbit_contains_self():
    w = minimize(cyclic_word("a (a^2)^b")).final
    assert w in minimal_orbit(w) or w.inverse() in minimal_orbit(w)


def test_minimal_orbits_meet_for_example_3_1():
    m1 = minimize(cyclic_word("a b a b^2 a b^3")).final
    m2 = minimize(cyclic_word("a (a^2)^b")).final
    orbit = minimal_orbit(m1)
    assert m2 in orbit or m2.inverse() in orbit


def test_orbit_cap_is_an_error_not_false():
    with pytest.raises(OrbitCapExceeded):
        minimal_orbit(minimize(cyclic_word("a (a^2)^b")).final, cap=1)


def test_equivalent_examples():
    assert equivalent(cyclic_word("a b a b^2 a b^3"), cyclic_word("a (a^2)^b"))
    assert not equivalent(cyclic_word("a", 2), cyclic_word("a^2", 2))
    w = cyclic_word("a b^2 a^2")
    assert equivalent(w, w)


def test_equivalent_is_an_equivalence_on_a_sample():
    rng = random.Random(11)
    words = []
    while len(words) < 8:
        letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 5)))
        try:
            words.append(CyclicWord(2, letters))
        except ValueError:
            continue
    for w in words:
        assert equivalent(w, w)
    for u in words:
        for v in words:
            assert equivalent(u, v) == equivalent(v, u)
    # transitivity spot-check
    for u in words:
        for v in words:
            for x in words:
                if equivalent(u, v) and equivalent(v, x):
                    assert equivalent(u, x)


def test_diskbusting_examples():
    assert is_diskbusting(cyclic_word("a^2 b^2 c^3 b^-3")) is False
    assert is_diskbusting(cyclic_word("a (a^2)^b")) is True
    assert is_diskbusting(cyclic_word("a", 2)) is False
    assert is_diskbusting(cyclic_word("a", 1)) is False


def test_diskbusting_invariant_under_relabelings():
    words = [cyclic_word("a (a^2)^b"), cyclic_word("a^2 b^2"), cyclic_word("ab", 2)]
    relabelings = [
        Relabeling(perm=(2, 1)),
        Relabeling(invert={1}),
        Relabeling(invert={1, 2}),
        Relabeling(perm=(2, 1), invert={2}),
    ]
    for w in words:
        base = is_diskbusting(w)
        for r in relabelings:
            assert is_diskbusting(transform(w, r)) == base


def test_prescreen_agrees_when_it_fires():
    fired = 0
    for text in ["a (a^2)^b", "a^2 b^2", "a b a^-1 b^-1", "ab", "a^3 b^2 a^-2 b^-3",
                 "a^2 b^2 c^3 b^-3", "a b c a^-1 b^-1 c^-1", "a^2 b c^2 b^-1 a c^-1"]:
        w = cyclic_word(text)
        final = minimize(w).final
        if cut_vertex_prescreen(final):
            fired += 1
            # the reference check: every word of the minimal orbit keeps
            # every generator
            full = frozenset(range(1, w.rank + 1))
            assert all(m.support() == full for m in minimal_orbit(final)), text
            assert is_diskbusting(w) is True
    assert fired >= 3


def test_move_inventories():
    assert len(all_first_kind_moves(2, include_identity=True)) == 8
    # 4 multipliers, each with 2^2 subsets of the other letters
    assert len(all_second_kind_moves(2, include_identity=True)) == 16
