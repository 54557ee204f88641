"""Acceptance suite: one test per criterion, each printing a PASS line.

Certificates produced along the way are collected so the closing
criteria (report formulas, transform invariance) can sweep everything
the suite built.
"""

import itertools
import math
import random
import time

import pytest

import oracles
from polyw.complexes import (
    PolygonalityCertificate,
    boundary_lambda,
    build_complex,
    certify,
    transform_certificate,
)
from polyw.constructors import (
    construct_f2_no_isolated,
    construct_height_one,
    construct_isolated_b,
    height_one_p_disk_pairing,
    height_one_q_disk_pairing,
    nonpolygonality_follower_obstruction,
    sourcesink_classify,
    two_disk_rotation_data,
)
from polyw.covers import double_surface_report
from polyw.invariants import (
    LambdaMultiset,
    LambdaTerm,
    RhoElement,
    UCertificate,
    UPair,
    is_simple_height_one,
    lam,
    rho,
    tn_membership,
    u_membership,
    verify_tn_certificate,
)
from polyw.search import ExhaustedWithin, SearchBounds, decide_polygonal, enumerate_all
from polyw.stats import run_trials
from polyw.whitehead import equivalent, minimize
from polyw.words import CyclicWord, Relabeling, cyclic_word

CERTS = []  # (label, certificate), shared across criteria


def _register(label, cert):
    CERTS.append((label, cert))
    return cert


def _report(num, name, started):
    print("\nACCEPTANCE %02d %-34s PASS  (%.2fs)" % (num, name, time.time() - started))


def test_criterion_01_rho_t3_paper_example():
    t0 = time.time()
    element = rho(cyclic_word("a^6 b^-3 c^5 b^4 c^-7"))
    expected = RhoElement(3, ((1, -2), (-2, 3), (3, 2), (2, -3), (-3, 1)))
    assert element == expected
    cert = tn_membership(element)
    assert cert is not None
    assert verify_tn_certificate(cert, element)
    assert time.time() - t0 < 1.0
    _report(1, "rho / cycle-monoid example", t0)


def test_criterion_02_membership_necessity():
    t0 = time.time()
    w = cyclic_word("a^2 b^2 c^3 b^-3")
    assert tn_membership(rho(w)) is None  # exhaustive negative
    assert len(minimize(w).final) == 1  # basis element
    assert time.time() - t0 < 10.0
    _report(2, "necessity example", t0)


def test_criterion_03_one_disk_double_boundary_example():
    t0 = time.time()
    # The worked example's figure reads the disk boundary as
    # (a^2 (a^-1)^b a a^b)^2; its prose spelling a^-2b^-1a^-1bab^-1ab is a
    # different cyclic word whose one-disk census is provably empty
    # (exhaustively checked), so the census runs on the figure word.
    fig = cyclic_word("a^2 (a^-1)^b a a^b")
    certs = list(enumerate_all(fig, SearchBounds(max_disks=1, max_power=2)))
    assert any((c.chi, c.m, c.vertices) == (-1, 1, 7) for c in certs)
    cert = next(c for c in certs if (c.chi, c.m, c.vertices) == (-1, 1, 7))
    _register("fig-census", cert)
    report = double_surface_report(cert)
    assert report.degree == 7 and report.chi_s0 == -4
    prose = cyclic_word("a^-2 b^-1 a^-1 b a b^-1 a b")
    assert len(prose) == 9
    assert list(enumerate_all(prose, SearchBounds(max_disks=1, max_power=2))) == []
    assert time.time() - t0 < 300
    _report(3, "one-disk census + cover report", t0)


def test_criterion_04_nonpolygonal_example():
    t0 = time.time()
    w = cyclic_word("a b a b^2 a b^3")
    assert nonpolygonality_follower_obstruction(w) is not None
    outcome = decide_polygonal(w, SearchBounds(max_disks=2, max_edges=28, max_power=3))
    assert isinstance(outcome, ExhaustedWithin)
    assert len(minimize(w).final) == 5
    assert equivalent(w, cyclic_word("a (a^2)^b")) is True
    assert time.time() - t0 < 600
    _report(4, "obstructed word exhausts", t0)


def test_criterion_05_rank2_no_isolated_suite():
    t0 = time.time()
    exps = [2, 3, -2, -3]
    total = 0
    for l in (1, 2, 3):
        for combo in itertools.product(exps, repeat=2 * l):
            text = " ".join("%s^%d" % ("ab"[i % 2], e) for i, e in enumerate(combo))
            w = cyclic_word(text, 2)
            cert = construct_f2_no_isolated(w)
            assert cert.polygonal, text
            total += 1
    assert total == 16 + 256 + 4096
    sample = construct_f2_no_isolated(cyclic_word("a^3 b^2 a^-2 b^-3"))
    _register("f2-sample", sample)
    _report(5, "no-isolated rank-2 suite (%d words)" % total, t0)


def test_criterion_06_sourcesink_exhaustive():
    t0 = time.time()
    for m in range(1, 6):
        for bits in itertools.product((1, -1), repeat=2 * m):
            sources, sinks, filters, pollutants = sourcesink_classify(list(bits))
            assert sources == sinks and filters == pollutants
    assert time.time() - t0 < 1.0
    _report(6, "source/sink census exhaustive", t0)


def test_criterion_07_isolated_b_suite():
    t0 = time.time()
    total = 0
    for l in (1, 2):
        for exps in itertools.product([2, 3, -2, -3], repeat=2 * l):
            text = " ".join(
                "a^%d (a^%d)^b" % (exps[2 * i], exps[2 * i + 1]) for i in range(l)
            )
            w = cyclic_word(text)
            cert = construct_isolated_b(w)
            assert cert.polygonal, text
            total += 1
    assert total == 16 + 256
    _register("isolated-b-sample", construct_isolated_b(cyclic_word("a^2 (a^3)^b")))
    _report(7, "isolated-b suite (%d words)" % total, t0)


def test_criterion_08_lambda_golden_values():
    t0 = time.time()
    w = cyclic_word("a (a^2)^b")
    shape = is_simple_height_one(w)
    # three-punctured sphere from the one-disk consistent pairing
    sphere = build_complex(w, [2], [((0, 9), (0, 2)), ((0, 4), (0, 7))])
    assert boundary_lambda(sphere) == LambdaMultiset(
        (lam("+", 2), lam("+", 2), lam("-", 1, 1))
    )
    # the four displayed identities for the height-one construction; the
    # two p-side disks (and the two q-side disks) are identical, so one
    # build per side realizes both equalities
    P = build_complex(w, [2], height_one_p_disk_pairing(shape, 2, 0))
    assert boundary_lambda(P) == LambdaMultiset(
        (lam("-", 1), lam("-", 1), lam("+", 2, 2))
    )
    Q = build_complex(w, [4], height_one_q_disk_pairing(shape, 4, 0))
    assert boundary_lambda(Q) == LambdaMultiset(
        (lam("-", 1, 1, 1, 1), lam("+", 2), lam("+", 2), lam("+", 2), lam("+", 2))
    )
    from polyw.constructors import _height_one_positions

    alphas, betas = _height_one_positions(shape, 2)
    modified = []
    for i in range(2):
        for j in range(2):
            modified.append(((i, betas[(j - 1) % 2]), ((i + 1) % 2, alphas[j])))
    P12 = build_complex(w, [2, 2], modified)
    assert boundary_lambda(P12) == LambdaMultiset(
        (lam("-", 1, 1), lam("-", 1, 1), lam("+", 2, 2), lam("+", 2, 2))
    )
    doubled = (
        4 * LambdaMultiset((lam("-", 1, 1),))
        + 4 * LambdaMultiset((lam("+", 2, 2),))
        + 4 * LambdaMultiset((lam("-", 1, 1, 1, 1),))
        + 16 * LambdaMultiset((lam("+", 2),))
    )
    assert u_membership(doubled) is not None
    # the displayed decomposition itself validates
    displayed = UCertificate(
        tuple(
            [UPair(lam("-", 1, 1), lam("+", 2), None)] * 4
            + [UPair(lam("+", 2, 2), lam("-", 1, 1, 1, 1), None)] * 4
            + [UPair(lam("+", 2), lam("+", 2), 1)] * 6
        )
    )
    assert displayed.verify_against(doubled)
    _report(8, "boundary-invariant golden values", t0)


def test_criterion_09_bs_relators():
    t0 = time.time()
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            for sp in (1, -1):
                for sq in (1, -1):
                    w = cyclic_word("a^%d (a^%d)^b" % (sp * p, sq * q))
                    cert = construct_height_one(w)
                    assert cert.polygonal, (sp * p, sq * q)
    _register("bs-sample", construct_height_one(cyclic_word("a (a^2)^b")))
    _register("bs-swap-sample", construct_height_one(cyclic_word("a^3 (a)^b")))
    assert time.time() - t0 < 60
    _report(9, "conjugate-power relators (36 words)", t0)


def _independent_chi_and_vertices(cert):
    """Recount V, E, F from the raw pairing with a fresh union-find."""
    letters = [cert.word.letters * k for k in cert.powers]
    sizes = [len(x) for x in letters]
    base = [0]
    for s in sizes:
        base.append(base[-1] + s)
    parent = list(range(base[-1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for (i, j), (i2, j2) in cert.pairing.pairs:
        same = (letters[i][j] > 0) == (letters[i2][j2] > 0)
        s0, e0 = base[i] + j, base[i] + (j + 1) % sizes[i]
        s1, e1 = base[i2] + j2, base[i2] + (j2 + 1) % sizes[i2]
        if same:
            union(s0, s1)
            union(e0, e1)
        else:
            union(s0, e1)
            union(e0, s1)
    vertices = len({find(x) for x in range(base[-1])})
    edges = len(cert.pairing.pairs)
    faces = len(cert.powers)
    return vertices - edges + faces, vertices


def test_criterion_10_report_formulas_hold_everywhere():
    t0 = time.time()
    assert CERTS, "earlier criteria must have registered certificates"
    checked = 0
    for label, cert in CERTS:
        if cert.declarative is not None or not cert.polygonal:
            continue
        chi, vertices = _independent_chi_and_vertices(cert)
        assert chi == cert.chi, label
        report = double_surface_report(cert)
        assert report.degree == vertices, label
        assert report.chi_s0 == 2 * (chi - cert.m), label
        checked += 1
    assert checked >= 4
    _report(10, "cover report formulas (%d certs)" % checked, t0)


TRANSFORMS = [
    Relabeling(perm=(2, 1)),
    Relabeling(invert={1}),
    Relabeling(invert={2}),
    Relabeling(invert_word=True),
    Relabeling(rotation=1),
    Relabeling(perm=(2, 1), invert={2}, invert_word=True),
]


def test_criterion_11_invariance_suite():
    t0 = time.time()
    w = cyclic_word("a (a^2)^b")
    # chi = m: verdict false, also transported
    failure = certify(w, [2], [((0, j), (0, j + 5)) for j in range(5)])
    pool = [(label, cert) for label, cert in CERTS
            if cert.declarative is None and cert.word.rank == 2]
    pool.append(("pi-rotation", failure))
    assert pool
    checked = 0
    for label, cert in pool:
        for rel in TRANSFORMS:
            moved = transform_certificate(cert, rel)
            assert moved.polygonal == cert.polygonal, (label, rel)
            checked += 1
    _report(11, "transform invariance (%d cases)" % checked, t0)


def test_criterion_12_random_height_one_trials():
    t0 = time.time()
    report = run_trials(200, 2000, seed=20260810)
    assert report.p_condition >= 0.9
    sigma = math.sqrt(199) / 2
    assert abs(report.mean_runs - 199 / 2) <= 3 * sigma / math.sqrt(2000)
    low = run_trials(100, 2000, seed=20260810)
    high = run_trials(400, 2000, seed=20260810)
    se = math.sqrt(max(low.p_fail_q * (1 - low.p_fail_q), 1e-12) / 2000) or 1e-12
    assert high.p_fail_q <= low.p_fail_q + se
    assert time.time() - t0 < 60
    _report(12, "random height-one trials", t0)


def test_criterion_13_oracle_equivalence():
    t0 = time.time()
    from polyw.invariants import canonical_pair

    pair_universe = sorted(
        {
            canonical_pair((i, j))
            for i in (1, -1, 2, -2)
            for j in (1, -1, 2, -2)
            if abs(i) != abs(j)
        }
    )
    count = 0
    for size in range(0, 7):
        for combo in itertools.combinations_with_replacement(pair_universe, size):
            element = RhoElement(2, combo)
            assert (tn_membership(element) is not None) == oracles.tn_oracle(element)
            count += 1
    term_universe = [
        lam("+", 1), lam("-", 1), lam("+", 2), lam("-", 2),
        lam("+", 1, 1), lam("-", 1, 1),
    ]
    for size in range(0, 7):
        for combo in itertools.combinations_with_replacement(term_universe, size):
            L = LambdaMultiset(combo)
            assert (u_membership(L) is not None) == oracles.u_oracle(L)
            count += 1
    _report(13, "oracle equivalence (%d multisets)" % count, t0)
