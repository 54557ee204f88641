"""Completion of folded labeled graphs to covers of the rose, and
elevation/degree reports for certified surfaces.

A folded labeled graph (per generator, a partial injection on vertices)
embeds in a cover of the same vertex count: each partial injection is
completed to a permutation by matching unmatched tails to unmatched heads
in ascending vertex order.  Loops of the amalgamating word lift to one
elevation per orbit of the deck translation v -> v.w.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

from .complexes import PolygonalityCertificate, SurfaceComplex
from .words import MAX_WORD_LENGTH, CyclicWord


class FoldednessError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledGraph:
    """Vertices 0..n-1 with one partial map tail->head per generator."""

    rank: int
    n_vertices: int
    maps: Tuple[Tuple[Tuple[int, int], ...], ...]  # per generator: (tail, head) pairs

    def __post_init__(self):
        if len(self.maps) != self.rank:
            raise ValueError("need one partial map per generator")
        norm = []
        for g, entries in enumerate(self.maps, start=1):
            entries = tuple(sorted(tuple(e) for e in entries))
            tails = [t for t, _ in entries]
            heads = [h for _, h in entries]
            for v in tails + heads:
                if not 0 <= v < self.n_vertices:
                    raise ValueError("vertex %d out of range" % v)
            if len(set(tails)) != len(tails) or len(set(heads)) != len(heads):
                raise FoldednessError(
                    "generator %d map is not a partial injection" % g
                )
            norm.append(entries)
        object.__setattr__(self, "maps", tuple(norm))


def graph_of_complex(S: SurfaceComplex) -> LabeledGraph:
    """The labeled 1-skeleton of a surface complex; its generator maps,
    completed, would hold rank x vertices entries, refused past
    ``MAX_WORD_LENGTH``."""
    rank = S.word.rank
    if rank * S.n_vertices > MAX_WORD_LENGTH:
        raise ValueError("the cover of rank %d on %d vertices is past %d entries"
                         % (rank, S.n_vertices, MAX_WORD_LENGTH))
    maps: List[List[Tuple[int, int]]] = [[] for _ in range(rank)]
    for e in S.edges:
        maps[e.label - 1].append((e.tail, e.head))
    return LabeledGraph(rank, S.n_vertices, tuple(tuple(m) for m in maps))


@dataclass(frozen=True)
class CoverGraph:
    """A finite cover of the rank-n rose: one vertex permutation per generator."""

    rank: int
    perms: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = self.degree
        for g, p in enumerate(self.perms, start=1):
            if sorted(p) != list(range(n)):
                raise ValueError("generator %d map is not a permutation" % g)

    @property
    def degree(self):
        return len(self.perms[0]) if self.perms else 1

    @cached_property
    def _inverses(self):
        return [sorted(range(len(p)), key=p.__getitem__) for p in self.perms]

    def step(self, v, letter):
        return (self.perms if letter > 0 else self._inverses)[abs(letter) - 1][v]

    def act(self, v, letters):
        for x in letters:
            v = self.step(v, x)
        return v

    def to_dot(self):
        lines = ["digraph cover {"]
        for v in range(self.degree):
            lines.append('  v%d [label="%d"];' % (v, v))
        for g, p in enumerate(self.perms, start=1):
            for t, h in enumerate(p):
                lines.append('  v%d -> v%d [label="a%d"];' % (t, h, g))
        lines.append("}")
        return "\n".join(lines)


def stallings_complete(g: LabeledGraph) -> CoverGraph:
    """Extend each partial injection to a permutation, adding no vertices.

    Unmatched tails are matched with unmatched heads in ascending vertex
    order, which pins down one of the many valid completions.
    """
    n = g.n_vertices
    perms = []
    for entries in g.maps:
        perm = [-1] * n
        used_heads = set()
        for t, h in entries:
            perm[t] = h
            used_heads.add(h)
        free_tails = [v for v in range(n) if perm[v] < 0]
        free_heads = [v for v in range(n) if v not in used_heads]
        for t, h in zip(free_tails, free_heads):
            perm[t] = h
        perms.append(tuple(perm))
    return CoverGraph(g.rank, tuple(perms))


def permutation_cycles(perm):
    """(least element, length) per cycle of a permutation of 0..n-1, by
    least element."""
    seen = [False] * len(perm)
    out = []
    for v in range(len(perm)):
        size = 0
        u = v
        while not seen[u]:
            seen[u] = True
            size += 1
            u = perm[u]
        if size:
            out.append((v, size))
    return out


@dataclass(frozen=True)
class Elevation:
    representative: int
    multiplier: int  # n_g: orbit length of v -> v.w


@dataclass(frozen=True)
class ElevationReport:
    degree: int
    elevations: Tuple[Elevation, ...]
    chi_s0: int | None = None

    def to_json_dict(self):
        data = {
            "degree": self.degree,
            "elevations": [
                {"vertex": e.representative, "n_g": e.multiplier}
                for e in self.elevations
            ],
        }
        if self.chi_s0 is not None:
            data["chi_S0"] = self.chi_s0
        return data


def elevations(cover: CoverGraph, w: CyclicWord) -> ElevationReport:
    """One elevation per orbit of v -> v.w; the multiplier is the orbit size."""
    if w.rank != cover.rank:
        raise ValueError("rank mismatch")
    n = cover.degree
    out = [Elevation(v, size)
           for v, size in permutation_cycles([cover.act(v, w.letters) for v in range(n)])]
    assert sum(e.multiplier for e in out) == n
    return ElevationReport(n, tuple(out))


def double_surface_report(cert: PolygonalityCertificate) -> ElevationReport:
    """Degree and doubled-surface Euler characteristic of a true certificate.

    The certificate must re-certify.  The certified 1-skeleton completes
    to a cover of degree = vertex count, and the double of the drilled
    surface has chi = 2(chi - m).
    """
    if not cert.polygonal:
        raise ValueError("report requires a certified-true surface")
    S = cert.complex()
    cover = stallings_complete(graph_of_complex(S))
    # after the build, so that a malformed surface reports its own error
    if not cert.verify():
        raise ValueError("the certificate does not re-certify as stated")
    report = elevations(cover, cert.word)
    chi_s0 = 2 * (S.euler_characteristic() - S.m)
    return ElevationReport(report.degree, report.elevations, chi_s0)
