import itertools
import random
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    assert_matches_reference,
    follower_obstruction_reference,
    height_one_by_transport,
    rank2_cyclic_words,
)
from polyw import complexes, constructors
from polyw.cli import check_polygonal
from polyw.complexes import boundary_lambda, build_complex, certify, proper_power_certificate
from polyw.constructors import (
    ConstructionError,
    NotApplicableError,
    construct_f2_no_isolated,
    construct_from_tn,
    construct_height_one,
    construct_isolated_b,
    height_one_p_disk_pairing,
    nonpolygonality_follower_obstruction,
    sourcesink_classify,
    two_disk_rotation,
    two_disk_rotation_data,
)
from polyw.constructors import _reversing_gluing
from polyw.invariants import (
    LambdaMultiset,
    ResourceCapExceeded,
    is_simple_height_one,
    junction_pairs,
    lam,
    rho,
    tn_membership,
)
from polyw.words import cyclic_word, is_proper_power

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import corpus  # noqa: E402


@pytest.fixture(autouse=True)
def complexes_match_reference(monkeypatch):
    """Every complex a test here builds, the constructors' and certify's
    included, agrees exactly with the reference quotient."""
    built = []

    class Recorded(complexes.SurfaceComplex):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(complexes, "SurfaceComplex", Recorded)
    yield
    for S in built:
        assert_matches_reference(S)


def test_two_disk_rotation_figure_word():
    S = two_disk_rotation(cyclic_word("a^3 b^2 a^-2 b^-3"))
    assert [len(c) for c in S.boundary] == [2, 2, 2, 2]


def test_two_disk_rotation_small():
    S = two_disk_rotation(cyclic_word("a^2 b^-3"))
    assert [len(c) for c in S.boundary] == [2, 2]


def test_two_disk_rotation_single_syllable_rejected():
    with pytest.raises(NotApplicableError):
        two_disk_rotation(cyclic_word("a^5"))


def test_junction_circles_carry_their_invariant():
    # each 2-cycle boundary holds one edge per adjacent syllable, with the
    # in/out pattern encoding the junction's signed pair
    w = cyclic_word("a^3 b^2 a^-2 b^-3")
    powers, pairs, junctions = two_disk_rotation_data(w)
    S = build_complex(w, powers, pairs)
    signed = junction_pairs(w)
    comp_of_slot = {}
    for ci, comp in enumerate(S.boundary):
        for slot, _f in comp:
            comp_of_slot[slot] = ci
    for (p_slot, q_slot), (x, y) in zip(junctions, signed):
        assert comp_of_slot[p_slot] == comp_of_slot[q_slot]
        assert abs(S.slot_letter(p_slot)) == abs(x)
        assert S.slot_letter(p_slot) == x  # sign encodes orientation
        assert S.slot_letter(q_slot) == y


def test_construct_from_tn_examples():
    for text in ["a^2 b^-3 c^2", "a^6 b^-3 c^5 b^4 c^-7", "a^2 b^-3"]:
        w = cyclic_word(text)
        cert = tn_membership(rho(w))
        assert cert is not None
        out = construct_from_tn(w, cert)
        assert out.polygonal and out.m == 2 and out.chi < out.m
        assert out.verify()


def test_construct_from_tn_rejects_mismatched_certificate():
    w = cyclic_word("a^2 b^-3")
    other = tn_membership(rho(cyclic_word("a^2 b^-3 c^2")))
    with pytest.raises(ValueError):
        construct_from_tn(w, other)


def test_construct_from_tn_rejects_isolated():
    w = cyclic_word("a b^2 a^2 b^-2")
    cert = tn_membership(rho(w))
    if cert is not None:
        with pytest.raises(NotApplicableError):
            construct_from_tn(w, cert)
    # a proper power is refused too, though its junction invariant is in T_2
    w = cyclic_word("(a^2 b^2)^2")
    with pytest.raises(NotApplicableError, match="proper powers"):
        construct_from_tn(w, tn_membership(rho(w)))


def test_f2_examples():
    out = construct_f2_no_isolated(cyclic_word("a^3 b^2 a^-2 b^-3"))
    assert out.polygonal
    out = construct_f2_no_isolated(cyclic_word("a^2 b^2"))
    assert out.polygonal and out.m == 2
    with pytest.raises(NotApplicableError):
        construct_f2_no_isolated(cyclic_word("a b^2"))


def test_f2_proper_power_goes_declarative():
    out = construct_f2_no_isolated(cyclic_word("a^2 b^2 a^2 b^2"))
    assert out.polygonal and out.declarative is not None
    # so does the height-one construction, on a simple height-one proper power
    w = cyclic_word("(a (a)^b)^2")
    assert construct_height_one(w) == proper_power_certificate(w)


def test_sourcesink_examples():
    assert sourcesink_classify([1, 1, 1, 1]) == (0, 0, 2, 2)
    assert sourcesink_classify([1, -1, 1, -1]) == (2, 2, 0, 0)
    with pytest.raises(ValueError):
        sourcesink_classify([1, 1, 1])


def test_sourcesink_equalities_exhaustive():
    for m in range(1, 6):
        for bits in itertools.product((1, -1), repeat=2 * m):
            sources, sinks, filters, pollutants = sourcesink_classify(list(bits))
            assert sources == sinks
            assert filters == pollutants
            assert sources + sinks + filters + pollutants == 2 * m


def test_reversing_gluing_seams_only_opposite_circles_of_one_length():
    # with no pairs, each disk's boundary is one circle walked along the disk
    w = cyclic_word("ab")
    unequal = build_complex(w, [1, 2], [])
    assert [len(slots) for slots, _f in unequal.circles] == [2, 4]
    assert _reversing_gluing(unequal, 0, 1) is None
    # every arrow runs along its walk on both circles: no offset reverses them
    assert _reversing_gluing(build_complex(w, [1, 1], []), 0, 1) is None
    # on the rotation surface of an isolated-b word each circle runs along
    # one disk and back along the other, so one offset reverses them
    rotation = two_disk_rotation(cyclic_word("a^2 b a^2 b^-1"))
    assert _reversing_gluing(rotation, 0, 1) == [((0, 1), (1, 0)), ((0, 2), (0, 5)),
                                                 ((1, 3), (0, 4)), ((1, 2), (1, 5))]


def test_isolated_b_examples():
    out = construct_isolated_b(cyclic_word("a^2 b a^2 b^-1"))
    assert out.polygonal
    out = construct_isolated_b(cyclic_word("a^2 (a^3)^b"))
    assert out.polygonal
    with pytest.raises(NotApplicableError):
        construct_isolated_b(cyclic_word("a^2 b a^3 b"))


def test_isolated_b_conjugate_family():
    # prod a^{p_{2i-1}} (a^{p_{2i}})^b always satisfies the sign condition
    for exps in itertools.product((2, 3, -2, -3), repeat=2):
        w = cyclic_word("a^%d (a^%d)^b" % exps)
        out = construct_isolated_b(w)
        assert out.polygonal, exps


def test_isolated_b_certifies_once(monkeypatch):
    calls = []

    def counting_certify(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(constructors, "certify", counting_certify)
    w = cyclic_word("a^2 b a^-2 b^-1 a^-5 b^-1 a^-5 b a^2 b a^-2 b a^-5 b^-1 a^5 b^-1")
    out = construct_isolated_b(w)
    assert len(calls) == 1
    assert out.polygonal and out.verify()


def test_isolated_b_long_word():
    # 16 circle pairs: one reversing identification each, no search over gluings
    w = cyclic_word(" ".join("a^%d b" % ((-1) ** i * (2 + i % 3)) for i in range(32)))
    out = construct_isolated_b(w)
    assert out.polygonal and out.declarative is None and out.verify()
    assert out.construction["sources"] + out.construction["filters"] == 16


def test_height_one_small_example_lambda_trace():
    w = cyclic_word("a (a^2)^b")
    out = construct_height_one(w)
    assert out.polygonal and not out.declarative
    assert out.construction["c"] == 2 and out.construction["d"] == 2
    # the cross-disk chain pairing on the two p-side disks, wired exactly as
    # the constructor does it
    shape = is_simple_height_one(w)
    from polyw.constructors import _height_one_positions

    alphas, betas = _height_one_positions(shape, 2)
    modified = []
    for i in range(2):
        for j in range(2):
            target = (i + 1) % 2  # every factor is in the shift set here
            modified.append(((i, betas[(j - 1) % 2]), (target, alphas[j])))
    S = build_complex(w, [2, 2], modified)
    assert boundary_lambda(S) == LambdaMultiset(
        (lam("-", 1, 1), lam("-", 1, 1), lam("+", 2, 2), lam("+", 2, 2))
    )


def test_height_one_bs_relators():
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            out = construct_height_one(cyclic_word("a^%d (a^%d)^b" % (p, q)))
            assert out.polygonal, (p, q)


def test_height_one_signed_variants():
    for p, q in [(1, -2), (-2, 3), (-1, -3), (2, -2)]:
        out = construct_height_one(cyclic_word("a^%d (a^%d)^b" % (p, q)))
        assert out.polygonal, (p, q)


def test_height_one_swap_branch():
    out = construct_height_one(cyclic_word("a^2 (a)^b"))
    assert out.polygonal and out.construction.get("swapped")


# The paper's height-one words, the pinned 4-pair word and the ladder's
# height-one words under the membership caps (its 8- and 16-pair words
# are past them).
HEIGHT_ONE_TEXTS = [
    "a (a^2)^b",
    "a^3 (a)^b",
    "a^2 (a^3)^b",
    "a^2 (a^3)^b a^3 (a^2)^b a (a^5)^b a^4 (a)^b",
    "a^-3 (a^1)^b a^-3 (a^1)^b a^-1 (a^2)^b a^-2 (a^2)^b",
] + [text for family, text in corpus.ladder_pool()
     if family in ("height-one-1", "height-one-2", "height-one-4")]


def assert_matches_transport(w, out):
    """A swapped construction has the transported certificate's copy
    counts and disk powers."""
    ref = height_one_by_transport(w)
    assert ref.polygonal
    keys = ("c", "d", "doubled")
    assert [out.construction[k] for k in keys] == [ref.construction[k] for k in keys]
    assert out.powers == ref.powers


@pytest.mark.parametrize("text", HEIGHT_ONE_TEXTS)
def test_height_one_words_match_transport(text):
    w = cyclic_word(text)
    out = construct_height_one(w)
    assert out.polygonal and out.verify()
    if out.construction.get("swapped"):
        assert_matches_transport(w, out)


def test_height_one_words_include_swaps():
    shapes = [is_simple_height_one(cyclic_word(text)) for text in HEIGHT_ONE_TEXTS]
    assert sum(s.p * s.p_prime < s.q * s.q_prime for s in shapes) >= 4


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda l: st.tuples(
    st.lists(st.integers(1, 3), min_size=l, max_size=l),
    st.lists(st.integers(1, 3), min_size=l, max_size=l),
    st.sampled_from((1, -1)), st.sampled_from((1, -1)))))
def test_height_one_swap_matches_transport_random(drawn):
    ps, qs, sp, sq = drawn
    w = cyclic_word(" ".join("a^%d (a^%d)^b" % (sp * p, sq * q) for p, q in zip(ps, qs)))
    shape = is_simple_height_one(w)
    assume(shape.inequality() and not is_proper_power(w))
    assume(shape.p * shape.p_prime < shape.q * shape.q_prime)
    out = construct_height_one(w)
    assert out.construction["swapped"] and out.polygonal and out.verify()
    assert_matches_transport(w, out)


@pytest.mark.parametrize("text, swapped, doubled", [
    ("a^3 (a)^b", True, False),
    ("a^2 (a^3)^b", False, True),
    ("a^3 (a^1)^b a^3 (a^2)^b", True, True),
])
def test_height_one_builds_and_certifies_once(monkeypatch, text, swapped, doubled):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(constructors, "certify", counting("certify", certify))
    monkeypatch.setattr(complexes, "certify", counting("certify", complexes.certify))
    monkeypatch.setattr(constructors, "build_complex",
                        counting("build_complex", build_complex))
    out = construct_height_one(cyclic_word(text))
    assert out.construction.get("swapped", False) == swapped
    assert out.construction["doubled"] == doubled
    assert sorted(calls) == ["build_complex", "certify"]
    assert out.verify()


@pytest.mark.parametrize("text", ["a^3 (a)^b", "a^2 (a^3)^b", "a^3 (a^1)^b a^3 (a^2)^b"])
def test_height_one_walks_its_circles_once(monkeypatch, text):
    # boundary_lambda and lambda_components read one walk of the block
    walks = []
    walk = complexes._lambda_circles

    def counting(S):
        walks.append(S)
        return walk(S)

    monkeypatch.setattr(complexes, "_lambda_circles", counting)
    out = construct_height_one(cyclic_word(text))
    assert len(walks) == 1
    assert out.verify()


def test_height_one_refuses_a_block_past_the_slot_bound():
    # c = d = 1: disks of powers 1000 and 1000 on a 2004-letter word
    with pytest.raises(ResourceCapExceeded, match="the block needs 4008000 slots"):
        construct_height_one(cyclic_word("a (a^999)^b a^999 (a)^b"))


# The ladder's first 16-pair height-one word: its block holds 44,352 slots
# on 7,770 boundary circles, one U term each, over the 2048-term cap.
HEIGHT_ONE_16 = next(text for family, text in corpus.ladder_pool() if family == "height-one-16")


def test_height_one_refuses_the_term_cap_before_the_walk(monkeypatch):
    def walk(S):
        raise AssertionError("the boundary invariant of a refused block was walked")

    monkeypatch.setattr(constructors, "boundary_lambda", walk)
    with pytest.raises(ResourceCapExceeded) as err:
        construct_height_one(cyclic_word(HEIGHT_ONE_16))
    assert str(err.value) == "multiset has 7770 terms > cap 2048"


@pytest.mark.parametrize("text, refused, powers", [
    (HEIGHT_ONE_16, True, [66, 102]),
    # doubled and swapped
    ("a^-3 (a^1)^b a^-3 (a^1)^b a^-1 (a^2)^b a^-2 (a^2)^b", False, [6, 9]),
    ("a^3 (a)^b", False, [3, 9]),
])
def test_height_one_lays_out_each_disk_power_once(monkeypatch, text, refused, powers):
    # the p-side disks share one layout, and so do the q-side ones
    calls, real = [], constructors._height_one_positions
    monkeypatch.setattr(constructors, "_height_one_positions",
                        lambda shape, k: calls.append(k) or real(shape, k))
    if refused:
        with pytest.raises(ResourceCapExceeded):
            construct_height_one(cyclic_word(text))
    else:
        assert construct_height_one(cyclic_word(text)).polygonal
    assert calls == powers


def test_height_one_under_the_term_cap_reaches_u_membership(monkeypatch):
    terms, real = [], constructors.u_membership
    monkeypatch.setattr(constructors, "u_membership", lambda m: terms.append(len(m)) or real(m))
    out = construct_height_one(cyclic_word("a (a^2)^b"))
    assert out.polygonal and terms == [14]


def test_height_one_refusal_peaks_below_10_mb():
    w = cyclic_word(HEIGHT_ONE_16)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapExceeded):
            construct_height_one(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 10 ** 6


def test_height_one_multi_factor():
    for exps in [((2, 3), (3, 2)), ((1, 1), (2, 3)), ((2, 2), (2, 3))]:
        ps, qs = exps
        text = " ".join("a^%d (a^%d)^b" % (p, q) for p, q in zip(ps, qs))
        w = cyclic_word(text)
        if is_simple_height_one(w) is None:
            continue
        out = construct_height_one(w)
        assert out.polygonal, exps


def test_height_one_not_applicable():
    with pytest.raises(NotApplicableError):
        construct_height_one(cyclic_word("a^2 b^2"))


def test_height_one_d_override_safety():
    # d is the order of the chain permutation: here one shift on the 2-run
    # swaps the c = 2 disk copies
    out = construct_height_one(cyclic_word("a (a^2)^b"))
    assert out.polygonal
    assert (out.construction["c"], out.construction["d"]) == (2, 2)


@pytest.mark.parametrize("construct, text, gluing", [
    (lambda w: construct_from_tn(w, tn_membership(rho(w))), "a^6 b^-3 c^5 b^4 c^-7",
     "cycle"),
    (construct_f2_no_isolated, "a^3 b^2 a^-2 b^-3", "cycle"),
    (construct_isolated_b, "a^2 b a^-2 b^-1", "isolated-b"),
    (construct_height_one, "a (a^2)^b a^2 (a)^b", "height-one"),
])
def test_a_rejected_gluing_is_a_construction_error(monkeypatch, construct, text, gluing):
    """A surface the certifier rejects is an error naming the gluing, and
    ``check`` reports it as inconclusive with that reason."""

    def rejecting(*args):
        return replace(certify(*args), polygonal=False, detail="rejected on purpose")

    monkeypatch.setattr(constructors, "certify", rejecting)
    w = cyclic_word(text)
    reason = "%s gluing failed certification: rejected on purpose" % gluing
    with pytest.raises(ConstructionError) as err:
        construct(w)
    assert str(err.value) == reason
    verdict = check_polygonal(w)
    assert (verdict.status, verdict.payload) == ("inconclusive", {"reason": reason})


def test_obstruction_examples():
    ev = nonpolygonality_follower_obstruction(cyclic_word("a b a b^2 a b^3"))
    assert ev is not None and ev.generator == 1 and ev.kind == "follower"
    assert nonpolygonality_follower_obstruction(cyclic_word("a^2 b^2")) is None
    ev = nonpolygonality_follower_obstruction(cyclic_word("ab"))
    assert ev is not None


def test_obstruction_respects_positivization():
    w = cyclic_word("(a b a b^2 a b^3)^-1")
    assert nonpolygonality_follower_obstruction(w) is not None
    w2 = cyclic_word("a^-1 b a^-1 b^2 a^-1 b^3")
    assert nonpolygonality_follower_obstruction(w2) is not None


def test_obstruction_skips_proper_powers_and_mixed_words():
    assert nonpolygonality_follower_obstruction(cyclic_word("abab", 2)) is None
    assert nonpolygonality_follower_obstruction(cyclic_word("a b a^-1 b^-1")) is None


def test_obstruction_matches_the_transforming_reference():
    fired = 0
    for length in range(1, 11):
        for w in rank2_cyclic_words(length):
            evidence = nonpolygonality_follower_obstruction(w)
            assert evidence == follower_obstruction_reference(w), str(w)
            fired += evidence is not None
    assert fired > 200


def test_constructors_always_certify_random_sample():
    rng = random.Random(99)
    for _ in range(15):
        l = rng.randint(1, 2)
        exps = [rng.choice([2, 3, -2, -3]) for _ in range(2 * l)]
        text = " ".join("%s^%d" % ("ab"[i % 2], e) for i, e in enumerate(exps))
        out = construct_f2_no_isolated(cyclic_word(text, 2))
        assert out.polygonal
    for _ in range(10):
        l = rng.randint(1, 2)
        sp, sq = rng.choice((1, -1)), rng.choice((1, -1))
        ps = [sp * rng.randint(1, 3) for _ in range(l)]
        qs = [sq * rng.randint(1, 3) for _ in range(l)]
        text = " ".join("a^%d (a^%d)^b" % (p, q) for p, q in zip(ps, qs))
        w = cyclic_word(text)
        shape = is_simple_height_one(w)
        if shape is None:
            continue
        if shape.p * shape.p_prime > shape.q ** 2 or shape.q * shape.q_prime > shape.p ** 2:
            continue
        out = construct_height_one(w)
        assert out.polygonal, text
