import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import diskbusting_by_orbit
from polyw import whitehead
from polyw.invariants import ResourceCapExceeded
from polyw.words import (
    CyclicWord,
    EmptyWordError,
    Relabeling,
    Word,
    cyclic_reduce,
    cyclic_word,
    transform,
)
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


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(lambda rank: st.tuples(
    st.just(rank),
    st.lists(st.integers(-rank, rank).filter(bool), min_size=1, max_size=9))))
def test_prescreen_agrees_when_it_fires(rank_letters):
    # a minimized word with full support passes the cut-vertex prescreen,
    # and the answer matches the enumeration of its minimal orbit
    rank, letters = rank_letters
    try:
        w = cyclic_reduce(Word(rank, tuple(letters)))
    except EmptyWordError:
        assume(False)
    final = minimize(w).final
    if len(final.support()) == rank:
        assert cut_vertex_prescreen(final) is True, w
    assert is_diskbusting(w) == diskbusting_by_orbit(w), w


def test_move_inventories():
    assert len(all_first_kind_moves(2)) == 7
    # 4 multipliers, each with the 2^2 subsets of the other letters but
    # the empty one, which gives the identity
    assert len(all_second_kind_moves(2)) == 12


def test_move_lists_refuse_ranks_past_the_cap(monkeypatch):
    monkeypatch.setattr(whitehead, "MAX_MOVE_RANK", 2)
    assert len(all_first_kind_moves(2)) == 7
    for moves in (all_first_kind_moves, all_second_kind_moves):
        with pytest.raises(ResourceCapExceeded, match="rank 3 is past"):
            moves(3)


def test_first_kind_moves_are_the_signed_permutations():
    moves = all_first_kind_moves(2)
    images = {tuple(rel.apply_letter(g) for g in (1, 2)) for rel in moves}
    assert len(images) == 7 and (1, 2) not in images
    assert images | {(1, 2)} == {(s * x, t * y) for x, y in ((1, 2), (2, 1))
                                 for s in (1, -1) for t in (1, -1)}
