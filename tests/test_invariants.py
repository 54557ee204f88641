import itertools
import random

import pytest

import oracles
from polyw.invariants import (
    DEFAULT_PAIR_CAP,
    DEFAULT_TERM_CAP,
    LambdaMultiset,
    LambdaTerm,
    ResourceCapExceeded,
    RhoElement,
    TnCertificate,
    canonical_pair,
    has_no_isolated_generators,
    height_one_inequality,
    is_simple_height_one,
    isolated_b_sign_condition,
    lam,
    offset_disjoint,
    rho,
    submonoid_shortcut,
    tn_membership,
    u_membership,
    verify_tn_certificate,
)
from polyw.words import Relabeling, cyclic_word, transform


def M(*terms):
    return LambdaMultiset(tuple(terms))


# --- rho ----------------------------------------------------------------------


def test_rho_three_generator_example():
    element = rho(cyclic_word("a^6 b^-3 c^5 b^4 c^-7"))
    expected = RhoElement(3, ((1, -2), (-2, 3), (3, 2), (2, -3), (-3, 1)))
    assert element == expected


def test_rho_mixed_signs():
    element = rho(cyclic_word("a^2 b^2 c^3 b^-3"))
    assert element == RhoElement(3, ((1, 2), (2, 3), (3, -2), (-2, 1)))


def test_rho_two_syllables():
    assert rho(cyclic_word("a^2 b^-3")) == RhoElement(2, ((1, -2), (-2, 1)))


def test_rho_single_syllable_is_empty():
    assert len(rho(cyclic_word("a^5"))) == 0


def test_rho_invariance_under_inversion():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 8)
        text = " ".join(
            "%s^%d" % ("ab"[i % 2], rng.choice([1, -1]) * rng.randint(1, 3))
            for i in range(n)
        )
        w = cyclic_word(text, 2)
        assert rho(w) == rho(w.inverse())


# --- tn membership -------------------------------------------------------------


def test_tn_member_three_generator_example():
    element = rho(cyclic_word("a^6 b^-3 c^5 b^4 c^-7"))
    cert = tn_membership(element)
    assert cert is not None
    assert verify_tn_certificate(cert, element)
    for cycle in cert.cycles:
        assert len({abs(c) for c in cycle}) == len(cycle)


def test_tn_not_member_is_exhaustive():
    assert tn_membership(rho(cyclic_word("a^2 b^2 c^3 b^-3"))) is None


def test_tn_two_cycle():
    cert = tn_membership(rho(cyclic_word("a^2 b^-3")))
    assert cert is not None and len(cert.cycles) == 1 and len(cert.cycles[0]) == 2


def test_tn_certificate_validation():
    with pytest.raises(ValueError):
        TnCertificate(2, (((1, -1)),))  # repeated absolute value
    with pytest.raises(ValueError):
        TnCertificate(2, ((1,),))  # too short


def test_tn_oracle_agreement_rank2():
    universe = sorted({canonical_pair((i, j)) for i in (1, -1, 2, -2)
                       for j in (1, -1, 2, -2) if abs(i) != abs(j)})
    assert len(universe) == 4
    for size in range(0, 7):
        for combo in itertools.combinations_with_replacement(universe, size):
            element = RhoElement(2, combo)
            assert (tn_membership(element) is not None) == oracles.tn_oracle(element), combo


def test_tn_oracle_agreement_rank3_sample():
    rng = random.Random(17)
    for rank, samples in ((3, 300), (4, 150)):
        letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
        universe = sorted({canonical_pair((i, j))
                           for i in letters for j in letters if abs(i) != abs(j)})
        for _ in range(samples):
            size = rng.randint(0, 6)
            combo = tuple(sorted(rng.choice(universe) for _ in range(size)))
            element = RhoElement(rank, combo)
            assert (tn_membership(element) is not None) == oracles.tn_oracle(element), combo


def test_tn_membership_at_the_pair_cap():
    # 512 pairs: one 2-cycle and 170 3-cycles over a, b, c
    rng = random.Random(29)
    pairs = [(1, 2), (2, 1)]
    while len(pairs) < DEFAULT_PAIR_CAP:
        cycle = [g * rng.choice((1, -1)) for g in rng.sample((1, 2, 3), 3)]
        pairs += [(cycle[k], cycle[(k + 1) % 3]) for k in range(3)]
    element = RhoElement(3, tuple(pairs))
    assert len(element) == DEFAULT_PAIR_CAP
    cert = tn_membership(element)
    assert cert is not None and verify_tn_certificate(cert, element)
    with pytest.raises(ResourceCapExceeded):
        tn_membership(element + RhoElement(3, ((1, 2),)))


def test_no_isolated_rank2_always_member():
    # every rank-2 word without isolated generators has its junction
    # invariant in the cycle monoid; exhaustive at small size
    exps = [2, 3, -2, -3]
    for l in (1, 2):
        for combo in itertools.product(exps, repeat=2 * l):
            text = " ".join(
                "%s^%d" % ("ab"[i % 2], e) for i, e in enumerate(combo)
            )
            w = cyclic_word(text, 2)
            assert tn_membership(rho(w)) is not None, text


# --- u membership ---------------------------------------------------------------


def test_u_member_doubled_three_punctured_sphere():
    assert u_membership(4 * M(lam("-", 2)) + 2 * M(lam("+", 1, 1))) is not None


def test_u_member_doubling_example():
    L = (
        4 * M(lam("-", 1, 1))
        + 4 * M(lam("+", 2, 2))
        + 4 * M(lam("-", 1, 1, 1, 1))
        + 16 * M(lam("+", 2))
    )
    cert = u_membership(L)
    assert cert is not None and cert.verify_against(L)


def test_u_membership_at_the_term_cap():
    # 2048 terms decompose into 1024 opposite-sign pairs, one per step of
    # the solver's path
    L = 1024 * M(lam("+", 1)) + 1024 * M(lam("-", 1))
    assert len(L) == DEFAULT_TERM_CAP
    cert = u_membership(L)
    assert cert is not None and cert.verify_against(L)
    with pytest.raises(ResourceCapExceeded):
        u_membership(L + 2 * M(lam("+", 2)))


def test_u_single_term_not_member():
    assert u_membership(M(lam("+", 1))) is None


def test_u_certificates_reverify():
    L = 2 * M(lam("-", 2)) + M(lam("+", 1, 1)) + M(lam("-", 2))
    cert = u_membership(L + M(lam("+", 2)))
    if cert is not None:
        assert cert.verify_against(L + M(lam("+", 2)))


def test_u_global_sign_swap_symmetry():
    rng = random.Random(23)
    comps = [(1,), (2,), (1, 1), (2, 2), (1, 2), (3,)]
    for _ in range(60):
        terms = tuple(
            LambdaTerm(rng.choice((1, -1)), rng.choice(comps))
            for _ in range(rng.randint(0, 6))
        )
        L = LambdaMultiset(terms)
        flipped = LambdaMultiset(tuple(LambdaTerm(-t.sign, t.composition) for t in terms))
        assert (u_membership(L) is None) == (u_membership(flipped) is None)


def test_u_oracle_agreement():
    universe = [
        lam("+", 1), lam("-", 1), lam("+", 2), lam("-", 2),
        lam("+", 1, 1), lam("-", 1, 1), lam("+", 2, 1),
    ]
    rng = random.Random(41)
    seen = set()
    for _ in range(250):
        size = rng.randint(0, 6)
        combo = tuple(sorted((rng.choice(universe) for _ in range(size)),
                             key=LambdaTerm.sort_key))
        if combo in seen:
            continue
        seen.add(combo)
        L = LambdaMultiset(combo)
        assert (u_membership(L) is not None) == oracles.u_oracle(L), combo


# --- shortcut -------------------------------------------------------------------


def test_shortcut_all_entries_large():
    witness = submonoid_shortcut(lam("+", 2, 3))
    assert witness is not None and witness.offset == 1
    # evaluate the defining sets explicitly mod 5
    assert offset_disjoint((2, 3), (2, 3), 1)


def test_shortcut_dominant_entry():
    witness = submonoid_shortcut(lam("-", 4, 1, 1))
    assert witness is not None
    assert witness.rotated[0] == 4 and witness.offset == 6 + 1 - 4
    assert witness.verify()


def test_shortcut_none():
    assert submonoid_shortcut(lam("+", 1, 1)) is None


def test_shortcut_implies_membership():
    for term in [lam("+", 2, 3), lam("-", 4, 1, 1), lam("+", 5), lam("-", 2, 2, 2)]:
        if submonoid_shortcut(term) is not None:
            L = M(term) + M(term)
            assert u_membership(L) is not None


# --- hypothesis predicates ------------------------------------------------------


def test_no_isolated_generators():
    assert has_no_isolated_generators(cyclic_word("a^2 b^3"))
    assert not has_no_isolated_generators(cyclic_word("a b^3"))


def test_simple_height_one_shapes():
    shape = is_simple_height_one(cyclic_word("a (a^2)^b"))
    assert shape is not None
    assert shape.p_exps == (1,) and shape.q_exps == (2,)
    assert (shape.p, shape.q, shape.p_prime, shape.q_prime) == (1, 2, 1, 0)
    assert is_simple_height_one(cyclic_word("a^2 b^2")) is None
    # mixed p-signs disqualify
    assert is_simple_height_one(cyclic_word("a (a^2)^b a^-1 (a^2)^b")) is None


def test_height_one_inequality_bs_relators():
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            w = cyclic_word("a^%d (a^%d)^b" % (p, q))
            assert height_one_inequality(w) is True


def test_isolated_b_condition():
    assert isolated_b_sign_condition(cyclic_word("a^2 b a^2 b^-1")) is True
    assert isolated_b_sign_condition(cyclic_word("a^2 b a^3 b")) is False
    assert isolated_b_sign_condition(cyclic_word("a^2 b^2")) is None
    # the alternating-conjugate family always satisfies the sign sum
    for p1 in (2, -3):
        for p2 in (3, -2):
            w = cyclic_word("a^%d (a^%d)^b" % (p1, p2))
            assert isolated_b_sign_condition(w) is True
