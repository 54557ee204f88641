import random

import pytest

from polyw.complexes import DiskSpec, certify, proper_power_certificate
from polyw.covers import (
    CoverGraph,
    Elevation,
    FoldednessError,
    LabeledGraph,
    double_surface_report,
    elevations,
    graph_of_complex,
    stallings_complete,
)
from polyw.search import SearchBounds, enumerate_all
from polyw.words import cyclic_word

FIG = cyclic_word("a^2 (a^-1)^b a a^b")


def fig_cert():
    return next(iter(enumerate_all(FIG, SearchBounds(max_disks=1, max_power=2))))


def test_rose_completion_unchanged():
    rose = LabeledGraph(2, 1, (((0, 0),), ((0, 0),)))
    cover = stallings_complete(rose)
    assert cover.degree == 1 and cover.perms == ((0,), (0,))


def test_single_edge_completion_forced():
    g = LabeledGraph(1, 2, (((0, 1),),))
    cover = stallings_complete(g)
    assert cover.degree == 2 and cover.perms == ((1, 0),)


def test_foldedness_enforced():
    with pytest.raises(FoldednessError):
        LabeledGraph(1, 3, (((0, 1), (0, 2)),))


def test_completion_of_certified_skeleton_has_degree_seven():
    cover = stallings_complete(graph_of_complex(fig_cert().complex()))
    assert cover.degree == 7


def test_elevations_of_rose():
    rose = stallings_complete(LabeledGraph(2, 1, (((0, 0),), ((0, 0),))))
    report = elevations(rose, cyclic_word("a (a^2)^b"))
    assert report.degree == 1
    assert [e.multiplier for e in report.elevations] == [1]


def test_elevations_two_cycle():
    cover = CoverGraph(1, ((1, 0),))
    report = elevations(cover, cyclic_word("a", 1))
    assert [e.multiplier for e in report.elevations] == [2]


def test_elevation_partition_sums_to_degree():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 8)
        perms = []
        for _g in range(2):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(tuple(p))
        cover = CoverGraph(2, tuple(perms))
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]
        try:
            w = cyclic_word(
                "".join("aAbB"[(abs(x) - 1) * 2 + (x < 0)] for x in letters), 2
            )
        except ValueError:
            continue
        report = elevations(cover, w)
        assert sum(e.multiplier for e in report.elevations) == n


def test_elevations_of_a_large_cover_with_an_inverse_letter():
    # degree 10^5: an inverse found by scanning the permutation would cost
    # degree^2 steps
    n = 10 ** 5
    rng = random.Random(5)
    a, b = list(range(n)), list(range(n))
    rng.shuffle(a)
    rng.shuffle(b)
    w = cyclic_word("a B")
    assert w.letters == (1, -2)
    b_inverse = [0] * n
    for v, h in enumerate(b):
        b_inverse[h] = v
    image = [b_inverse[a[v]] for v in range(n)]  # v -> v.w
    seen, want = [False] * n, []
    for v in range(n):  # one elevation per orbit, at its least vertex
        size, u = 0, v
        while not seen[u]:
            seen[u] = True
            size += 1
            u = image[u]
        if size:
            want.append(Elevation(v, size))
    report = elevations(CoverGraph(2, (tuple(a), tuple(b))), w)
    assert report.degree == n and list(report.elevations) == want


def test_double_surface_report_values():
    report = double_surface_report(fig_cert())
    assert report.degree == 7 and report.chi_s0 == -4
    assert sum(e.multiplier for e in report.elevations) == 7


def test_double_surface_report_torus_style():
    t = cyclic_word("a b a^-1 b^-1")
    cert = certify(t, [DiskSpec(t, 1)], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    report = double_surface_report(cert)
    assert report.chi_s0 == 2 * (0 - 1)


def test_double_surface_report_rejects_bad_inputs():
    w = cyclic_word("a (a^2)^b")
    failed = certify(w, [DiskSpec(w, 1), DiskSpec(w, 1)],
                     [((0, j), (1, j)) for j in range(5)])
    with pytest.raises(ValueError):
        double_surface_report(failed)  # chi = m, verdict false
    with pytest.raises(ValueError):
        double_surface_report(proper_power_certificate(cyclic_word("abab", 2)))


def test_cover_dot_export():
    cover = CoverGraph(2, ((1, 0), (0, 1)))
    dot = cover.to_dot()
    assert "a1" in dot and "a2" in dot
