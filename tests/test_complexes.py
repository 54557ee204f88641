import json
import random

import pytest

from polyw.complexes import (
    DiskSpec,
    LambdaError,
    PairingError,
    PolygonalityCertificate,
    SidePairing,
    boundary_lambda,
    build_complex,
    certify,
    check_immersion,
    genus_report,
    lambda_components,
    proper_power_certificate,
    transform_certificate,
)
from polyw.constructors import (
    construct_f2_no_isolated,
    construct_from_tn,
    construct_height_one,
    height_one_p_disk_pairing,
    height_one_q_disk_pairing,
)
from polyw.invariants import is_simple_height_one, lam, rho, tn_membership
from polyw.search import SearchBounds, enumerate_all
from polyw.words import CyclicWord, Relabeling, cyclic_word, is_proper_power

from oracles import assert_matches_reference, rank2_cyclic_words, reference_genus

W = cyclic_word("a (a^2)^b")  # canonical aabaB
FIG = cyclic_word("a^2 (a^-1)^b a a^b")

# Consistent b-side-pairing on one disk reading w^2, canonical coordinates
PARTIAL = [((0, 9), (0, 2)), ((0, 4), (0, 7))]


def torus_cert():
    t = cyclic_word("a b a^-1 b^-1")
    return certify(t, [DiskSpec(t, 1)], [((0, 0), (0, 2)), ((0, 1), (0, 3))])


def fig_cert():
    from polyw.search import SearchBounds, enumerate_all

    return next(iter(enumerate_all(FIG, SearchBounds(max_disks=1, max_power=2))))


def test_disk_boundary_letters():
    d = DiskSpec(W, 2)
    assert d.boundary_letters() == W.letters * 2
    d_neg = DiskSpec(W, -1)
    assert d_neg.boundary_letters() == W.inverse().rotated(0) or set(
        d_neg.boundary_letters()
    ) == set(W.inverse().letters)
    with pytest.raises(ValueError):
        DiskSpec(W, 0)


def test_three_punctured_sphere():
    S = build_complex([DiskSpec(W, 2)], PARTIAL)
    assert not S.closed
    assert len(S.boundary) == 3
    assert S.euler_characteristic() == -1  # sphere minus three disks
    assert check_immersion(S)[0]


def test_two_identical_disks_identity_matching_is_sphere():
    pairs = [((0, j), (1, j)) for j in range(5)]
    cert = certify(W, [DiskSpec(W, 1), DiskSpec(W, 1)], pairs)
    assert cert.closed and cert.chi == 2 and cert.m == 2
    assert not cert.polygonal


def test_empty_pairing_is_disk():
    S = build_complex([DiskSpec(W, 1)], [])
    assert S.euler_characteristic() == 1
    assert len(S.boundary) == 1 and not S.closed


def test_pairing_label_mismatch_rejected():
    with pytest.raises(PairingError):
        build_complex([DiskSpec(W, 1)], [((0, 0), (0, 2))])  # a against b


def test_pairing_involution_validation():
    with pytest.raises(PairingError):
        SidePairing([((0, 0), (0, 0))])
    with pytest.raises(PairingError):
        SidePairing([((0, 0), (0, 1)), ((0, 1), (0, 2))])


def test_immersion_violation_reported():
    # two a^2-disks sharing one edge: the shared head grows two outgoing a-edges
    u = cyclic_word("a^2", 1)
    pairs = [((0, 0), (1, 0))]
    S = build_complex([DiskSpec(u, 1), DiskSpec(u, 1)], pairs)
    ok, violations = check_immersion(S)
    assert not ok
    assert any(kind == "out" and count == 2 for _v, _g, kind, count in violations)


def test_torus_square():
    cert = torus_cert()
    assert cert.polygonal and cert.chi == 0 and cert.m == 1 and cert.vertices == 1
    S = cert.complex()
    assert genus_report(S) == (True, 1)


def test_projective_plane():
    a = cyclic_word("a", 1)
    S = build_complex([DiskSpec(a, 2)], [((0, 0), (0, 1))])
    assert S.euler_characteristic() == 1
    assert genus_report(S) == (False, 1)
    cert = certify(a, [DiskSpec(a, 2)], [((0, 0), (0, 1))])
    assert not cert.polygonal


def test_pi_rotation_disk_fails():
    pairs = [((0, j), (0, j + 5)) for j in range(5)]
    cert = certify(W, [DiskSpec(W, 2)], pairs)
    assert cert.closed and cert.immersion_ok
    assert cert.chi == 1 and cert.m == 1 and not cert.polygonal


def test_certifier_failures_are_verdicts():
    cert = certify(W, [DiskSpec(W, 1)], [((0, 0), (0, 2))])
    assert not cert.polygonal and "incompatible" in cert.detail


def test_fig_example_profile():
    cert = fig_cert()
    assert (cert.chi, cert.m, cert.vertices) == (-1, 1, 7)
    assert cert.polygonal


def test_certificates_reverify():
    for cert in [torus_cert(), fig_cert()]:
        assert cert.verify()


def test_certificate_json_roundtrip():
    cert = fig_cert()
    data = json.loads(cert.to_json())
    back = PolygonalityCertificate.from_json_dict(data)
    assert back.to_json_dict() == cert.to_json_dict()
    assert back.verify()


def test_proper_power_certificate():
    cert = proper_power_certificate(cyclic_word("abab", 2))
    assert cert.polygonal and cert.declarative["power"] == 2
    assert cert.verify()
    with pytest.raises(ValueError):
        proper_power_certificate(cyclic_word("ab"))


def test_boundary_lambda_values():
    from polyw.invariants import LambdaMultiset

    S = build_complex([DiskSpec(W, 2)], PARTIAL)
    assert boundary_lambda(S) == LambdaMultiset((lam("-", 1, 1), lam("+", 2), lam("+", 2)))
    shape = is_simple_height_one(W)
    P1 = build_complex([DiskSpec(W, 2)], height_one_p_disk_pairing(shape, 2, 0))
    assert boundary_lambda(P1) == LambdaMultiset(
        (lam("-", 1), lam("-", 1), lam("+", 2, 2))
    )
    Q1 = build_complex([DiskSpec(W, 4)], height_one_q_disk_pairing(shape, 4, 0))
    assert boundary_lambda(Q1) == LambdaMultiset(
        (lam("-", 1, 1, 1, 1), lam("+", 2), lam("+", 2), lam("+", 2), lam("+", 2))
    )


def test_boundary_lambda_preconditions():
    with pytest.raises(LambdaError):
        boundary_lambda(build_complex([DiskSpec(W, 1)], []))  # unpaired b-slots
    t = cyclic_word("a b a^-1 b^-1")
    with pytest.raises(LambdaError):
        boundary_lambda(torus_cert().complex())  # closed


def test_edge_count_invariants():
    S = build_complex([DiskSpec(W, 2)], PARTIAL)
    boundary_slots = sum(len(c) for c in S.boundary)
    assert 2 * len(S.pairing.pairs) + boundary_slots == DiskSpec(W, 2).size
    cert = fig_cert()
    S2 = cert.complex()
    assert 2 * S2.n_edges == sum(d.size for d in S2.disks)


def test_power_separated_vertices_never_identified():
    # consequence of the half-rotation exclusion on certified-true surfaces
    for cert in [torus_cert(), fig_cert(),
                 construct_f2_no_isolated(cyclic_word("a^2 b^2"))]:
        if cert.declarative is not None:
            continue
        S = cert.complex()
        n = len(cert.word)
        for i, d in enumerate(S.disks):
            for j in range(d.size):
                for h in range(n, d.size, n):
                    assert (
                        S.vertex_at((i, j)) != S.vertex_at((i, (j + h) % d.size))
                    ), (i, j, h)


TRANSFORMS = [
    Relabeling(perm=(2, 1)),
    Relabeling(invert={1}),
    Relabeling(invert={2}),
    Relabeling(invert={1, 2}),
    Relabeling(invert_word=True),
    Relabeling(perm=(2, 1), invert={1}, invert_word=True),
    Relabeling(rotation=3),
]


def test_transform_certificate_preserves_verdicts():
    certs = [
        torus_cert(),
        fig_cert(),
        construct_f2_no_isolated(cyclic_word("a^3 b^2 a^-2 b^-3")),
        certify(W, [DiskSpec(W, 2)], [((0, j), (0, j + 5)) for j in range(5)]),
    ]
    for cert in certs:
        for rel in TRANSFORMS:
            moved = transform_certificate(cert, rel)
            assert moved.polygonal == cert.polygonal, (cert.word, rel)
            if cert.polygonal:
                assert (moved.chi, moved.m, moved.vertices) == (
                    cert.chi,
                    cert.m,
                    cert.vertices,
                )


def test_genus_report_requires_closed_connected():
    S = build_complex([DiskSpec(W, 2)], PARTIAL)
    with pytest.raises(ValueError):
        genus_report(S)


def test_genus_walk_matches_the_reference_walk():
    # the torus, the projective plane, the complex with no disks, and every
    # surface the search lists at 2 disks and power 2 for short rank-2 words
    a = cyclic_word("a", 1)
    surfaces = [torus_cert().complex(), build_complex([DiskSpec(a, 2)], [((0, 0), (0, 1))]),
                build_complex([], [])]
    for length in range(2, 6):
        for w in rank2_cyclic_words(length):
            if not is_proper_power(w):
                surfaces += [cert.complex() for cert in enumerate_all(w, SearchBounds())]
    seen = set()
    for S in surfaces:
        try:
            want = reference_genus(S)
        except ValueError:
            with pytest.raises(ValueError, match="connected surfaces only"):
                genus_report(S)
            seen.add("disconnected")
        else:
            assert genus_report(S) == want, S.pairing.pairs
            seen.add(want[0])
    assert genus_report(build_complex([], [])) == (True, 1)
    assert seen == {True, False, "disconnected"}


def test_dot_export():
    S = torus_cert().complex()
    dot = S.to_dot()
    assert dot.startswith("digraph") and '"a1"' in dot and '"a2"' in dot


def random_pairing(rng, disks, labels, keep):
    """Slots of the given labels matched at random within each label; each
    pair is kept with probability ``keep``."""
    by_label = {}
    for i, d in enumerate(disks):
        for j, x in enumerate(d.boundary_letters()):
            if abs(x) in labels:
                by_label.setdefault(abs(x), []).append((i, j))
    pairs = []
    for slots in by_label.values():
        rng.shuffle(slots)
        pairs += [(slots[k], slots[k + 1]) for k in range(0, len(slots) - 1, 2)
                  if rng.random() < keep]
    return pairs


def random_letters(rng, rank, length):
    """A cyclically reduced word of the given rank and length."""
    alphabet = [g * e for g in range(1, rank + 1) for e in (1, -1)]
    while True:
        letters = [rng.choice(alphabet)]
        while len(letters) < length:
            x = rng.choice(alphabet)
            if x != -letters[-1]:
                letters.append(x)
        if letters[0] != -letters[-1]:
            return letters


def test_complex_matches_reference_on_random_pairings():
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        rank = rng.choice((2, 3))
        w = CyclicWord(rank, random_letters(rng, rank, rng.randint(1, 6)))
        disks = [DiskSpec(w, rng.choice((1, 2, 3, -1, -2))) for _ in range(rng.randint(1, 3))]
        pairs = random_pairing(rng, disks, range(1, rank + 1), rng.choice((1.0, 0.6)))
        S = build_complex(disks, pairs)
        assert_matches_reference(S)
        seen.add((S.closed, check_immersion(S)[0], len(S.connected_components()) > 1,
                  any(d.power < 0 for d in disks)))
    # closed or not, immersed or not, split or not, with or without negative powers
    assert all({key[k] for key in seen} == {False, True} for k in range(4))


def test_boundary_invariant_matches_reference_on_random_b_pairings():
    # b-slots matched at random on height-one words: some quotients carry
    # a boundary invariant and the rest fail one of its conditions
    rng = random.Random(6)
    valid = 0
    for _ in range(300):
        parts = [(rng.choice((1, 2, 3)), rng.choice((1, 2))) for _ in range(rng.randint(1, 2))]
        sign = rng.choice((1, -1))
        w = cyclic_word(" ".join("a^%d (a^%d)^b" % (sign * p, q) for p, q in parts))
        disks = [DiskSpec(w, rng.choice((1, 2, -1, 2, 4))) for _ in range(rng.randint(1, 3))]
        S = build_complex(disks, random_pairing(rng, disks, (2,), 1.0))
        valid += not isinstance(assert_matches_reference(S), str)
    assert valid >= 20


def test_certificate_loader_bounds_the_slot_count():
    data = {"word": "abAB", "rank": 2, "disks": [{"power": 250000}], "pairing": [],
            "verdict": {"chi": None, "m": None, "vertices": None, "immersion": None,
                        "closed": None, "polygonal": False}}
    assert PolygonalityCertificate.from_json_dict(data).powers == (250000,)
    data["disks"].append({"power": -1})
    with pytest.raises(ValueError, match="more than 1000000 slots"):
        PolygonalityCertificate.from_json_dict(data)


def test_tn_and_u_certificates_roundtrip_through_json():
    tn_word = cyclic_word("a^6 b^-3 c^5 b^4 c^-7")
    rejected = certify(W, [DiskSpec(W, 1)], [((0, 0), (0, 2))])
    for cert, optional in (
        (construct_from_tn(tn_word, tn_membership(rho(tn_word))),
         ["construction", "tn_certificate"]),
        (rejected, ["detail"]),
        (proper_power_certificate(cyclic_word("abab", 2)), ["declarative"]),
        (construct_height_one(cyclic_word("a (a^2)^b a^2 (a)^b")),
         ["construction", "u_certificate"]),
    ):
        data = json.loads(json.dumps(cert.to_json_dict()))
        assert list(data) == ["word", "rank", "disks", "pairing", "verdict", *optional]
        assert list(data["verdict"]) == ["chi", "m", "vertices", "immersion", "closed",
                                         "polygonal", "components"]
        again = PolygonalityCertificate.from_json_dict(data)
        assert again == cert and again.to_json_dict() == data
    assert data["u_certificate"][0].keys() == {"a", "b", "offset"}
    assert data["u_certificate"][0]["a"].keys() == {"sign", "composition"}
