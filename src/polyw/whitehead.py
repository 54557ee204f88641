"""Whitehead minimization, orbit equivalence, and the diskbusting test.

Two kinds of elementary automorphisms are used: relabelings (a signed
permutation of the generators) and multiplier moves (A, a) with a in A,
a^-1 not in A, sending x to x, xa, a^-1 x or a^-1 x a according to which
of x, x^-1 lie in A.  Greedy descent through multiplier moves reaches a
shortest representative of the automorphism orbit (peak reduction), and
the length-preserving moves connect all shortest representatives.

A move's image length is read off the Whitehead graph of w, which has an
edge {x, y^-1} for each cyclically adjacent pair x y:

    |(A, a) w| = |w| + (edges with exactly one end in A) - deg(a)

(J. H. C. Whitehead, *On equivalent sets of elements in a free group*,
Ann. Math. 1936; Lyndon-Schupp, *Combinatorial Group Theory*, I.4).  So
the descent and the orbit walk score every move from one count of the
graph and build only the images they keep.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Tuple

from .invariants import ResourceCapExceeded
from .words import (
    CyclicWord,
    Relabeling,
    Word,
    cyclic_reduce,
    inverse_letters,
    letter_key,
    transform,
    word_key,
)


class OrbitCapExceeded(RuntimeError):
    """Orbit enumeration hit the configured cap; the answer is inconclusive."""


class NotMinimalError(ValueError):
    pass


DEFAULT_ORBIT_CAP = 10 ** 6

# The move lists grow past use with the rank: 2r*4^(r-1) multiplier moves
# (12276 at rank 6, 262128 at rank 8) and 2^r*r! signed permutations.
MAX_MOVE_RANK = 6
# Letters the move images of one minimization would hold in all, counted
# from the move scores; random rank-3 words of length 12 need under 10,000.
MAX_MOVE_WORK = 1 << 20


def _check_rank(rank):
    if rank > MAX_MOVE_RANK:
        raise ResourceCapExceeded("rank %d is past the Whitehead move cap, rank %d"
                                  % (rank, MAX_MOVE_RANK))


@dataclass(frozen=True)
class SecondKindMove:
    """Multiplier move (A, a): a in A, a^-1 not in A."""

    multiplier: int
    members: frozenset

    def __post_init__(self):
        a = self.multiplier
        if a not in self.members or -a in self.members:
            raise ValueError("need a in A and a^-1 not in A")

    def sort_key(self):
        return (1, letter_key(self.multiplier),
                tuple(sorted((letter_key(x) for x in self.members))))

    def image_of_generator(self, g):
        a = self.multiplier
        if g == abs(a):
            return (g,)
        img = []
        if -g in self.members:
            img.append(-a)
        img.append(g)
        if g in self.members:
            img.append(a)
        return tuple(img)

    def apply(self, w):
        images = {}
        for g in range(1, w.rank + 1):
            images[g] = self.image_of_generator(g)
            images[-g] = inverse_letters(images[g])
        return cyclic_reduce(Word(w.rank, tuple(y for x in w.letters for y in images[x])))

    def __str__(self):
        a = self.multiplier
        mem = ",".join(str(x) for x in sorted(self.members, key=letter_key))
        return "mult[a=%d; A={%s}]" % (a, mem)


def signed_letters(rank):
    return [x for g in range(1, rank + 1) for x in (g, -g)]


def all_first_kind_moves(rank):
    """The signed permutations of the generators other than the identity,
    which is listed first."""
    _check_rank(rank)
    return [
        Relabeling(perm, frozenset(g for g, s in zip(perm, signs) if s < 0))
        for perm in itertools.permutations(range(1, rank + 1))
        for signs in itertools.product((1, -1), repeat=rank)
    ][1:]


def all_second_kind_moves(rank):
    """The multiplier moves in ``sort_key`` order, one tuple per rank."""
    _check_rank(rank)
    return _second_kind_moves(rank)


@functools.lru_cache(maxsize=None)
def _second_kind_moves(rank):
    moves = []
    for a in signed_letters(rank):
        rest = [x for x in signed_letters(rank) if x != a and x != -a]
        for mask in range(1 << len(rest)):
            members = frozenset([a] + [x for i, x in enumerate(rest) if mask >> i & 1])
            if len(members) == 1:
                continue
            moves.append(SecondKindMove(a, members))
    moves.sort(key=SecondKindMove.sort_key)
    return tuple(moves)


def _image_lengths(w, moves):
    """Yield ``len(move.apply(w))`` for each move in turn, by Whitehead's
    length formula on one count of the Whitehead graph of ``w``."""
    edges = whitehead_edges(w)
    degree = Counter()
    for (x, y), c in edges:
        degree[x] += c
        degree[y] += c
    n = len(w)
    for move in moves:
        members = move.members
        cut = sum(c for (x, y), c in edges if (x in members) != (y in members))
        yield n + cut - degree[move.multiplier]


@dataclass(frozen=True)
class MinimizationTrace:
    start: CyclicWord
    steps: Tuple[Tuple[SecondKindMove, CyclicWord], ...]
    final: CyclicWord

    def replay(self):
        """Re-apply the recorded moves to the start word."""
        w = self.start
        for move, _ in self.steps:
            w = move.apply(w)
        return w


def minimize(w):
    """Greedy descent to a shortest word in the automorphism orbit.

    At each step every multiplier move is scored with its image length
    (Whitehead's formula, no image built); among the moves achieving the
    best shortening the least one (fixed move encoding) is applied, and
    only its image is built.  Past ``MAX_MOVE_WORK`` letters of scored
    images it raises ResourceCapExceeded.
    """
    moves = all_second_kind_moves(w.rank)
    steps = []
    current = w
    work = 0
    while True:
        best_move = None
        best_length = len(current)
        # already sorted, so the first strict improvement is the least move
        for move, length in zip(moves, _image_lengths(current, moves)):
            work += length
            if work > MAX_MOVE_WORK:
                raise ResourceCapExceeded("minimization past %d letters" % MAX_MOVE_WORK)
            if length < best_length:
                best_move, best_length = move, length
        if best_move is None:
            break
        current = best_move.apply(current)
        steps.append((best_move, current))
    return MinimizationTrace(w, tuple(steps), current)


def _class_rep(w):
    """Canonical representative of {w, w^-1} as cyclic words."""
    wi = w.inverse()
    return w if word_key(w.letters) <= word_key(wi.letters) else wi


def minimal_orbit(w, cap=DEFAULT_ORBIT_CAP):
    """All minimal words connected to ``w`` by length-preserving moves.

    ``w`` must already be minimal.  The result is closed under first-kind
    moves and stores each member canonically up to rotation and inversion.
    """
    first = all_first_kind_moves(w.rank)
    second = all_second_kind_moves(w.rank)
    start = _class_rep(w)
    seen = {start}
    frontier = [start]
    target_len = len(w)
    while frontier:
        nxt = []
        for word in frontier:
            images = [transform(word, rel) for rel in first]
            for move, length in zip(second, _image_lengths(word, second)):
                if length < target_len:
                    raise NotMinimalError(
                        "%s is not minimal: %s shortens it" % (word, move)
                    )
                if length == target_len:
                    images.append(move.apply(word))
            for image in images:
                rep = _class_rep(image)
                if rep not in seen:
                    if len(seen) >= cap:
                        raise OrbitCapExceeded("orbit exceeded cap %d" % cap)
                    seen.add(rep)
                    nxt.append(rep)
        frontier = nxt
    return frozenset(seen)


def equivalent(w1, w2, cap=DEFAULT_ORBIT_CAP):
    """Whether some automorphism carries w1 to (a conjugate of) w2.

    Raises :class:`OrbitCapExceeded` when the orbit search is cut short,
    which is reported distinctly from a negative answer.
    """
    if w1.rank != w2.rank:
        raise ValueError("rank mismatch")
    m1 = minimize(w1).final
    m2 = minimize(w2).final
    if len(m1) != len(m2):
        return False
    target = _class_rep(m2)
    if _class_rep(m1) == target:
        return True
    return target in minimal_orbit(m1, cap=cap)


def whitehead_graph(w):
    """Edges {x, -y} for cyclically adjacent letters x y of ``w``."""
    letters = w.letters
    return [frozenset((x, -y)) for x, y in zip(letters, letters[1:] + letters[:1])]


def whitehead_edges(w):
    """The Whitehead graph of ``w`` counted: ((x, y), m) per edge, x before
    y under ``letter_key`` and m its multiplicity, in ``word_key`` order.
    Each distinct pair of adjacent letters is normalised once."""
    letters = w.letters
    count = Counter()
    for (x, y), m in Counter(zip(letters, letters[1:] + letters[:1])).items():
        count[(x, -y) if letter_key(x) <= letter_key(-y) else (-y, x)] += m
    return sorted(count.items(), key=lambda item: word_key(item[0]))


def _connected_without(vertices, adjacency, removed):
    remaining = [v for v in vertices if v != removed]  # never empty: rank >= 1
    stack = [remaining[0]]
    seen = {remaining[0]}
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if u != removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(remaining)


def cut_vertex_prescreen(w):
    """Fast sufficient test for diskbusting.

    Returns True when the Whitehead graph on all 2n letters is connected
    with no cut vertex (then, by Whitehead's cut-vertex lemma, w lies in
    no proper free factor), and None when the test is silent.
    """
    vertices = signed_letters(w.rank)
    adjacency = {v: set() for v in vertices}
    for (x, y), _m in whitehead_edges(w):
        adjacency[x].add(y)
        adjacency[y].add(x)
    if not all(_connected_without(vertices, adjacency, v) for v in [None, *vertices]):
        return None
    return True


def free_factor_witness(w):
    """The minimization trace of w when it ends in a word that omits a
    generator, so that w lies in a proper free factor; None otherwise.

    By Whitehead's cut-vertex lemma (Stallings, *Whitehead graphs on
    handlebodies*, 1999; Heusener-Weidmann, 2019) a word in a proper free
    factor has a disconnected Whitehead graph or one with a cut vertex.
    A minimized word with full support has neither: a cut vertex v, or a
    component missing some letter's inverse, would give a strictly
    shortening move (A = v plus a component of G - v that misses v^-1).
    So ``cut_vertex_prescreen`` holds on it, and no orbit is enumerated.
    """
    trace = minimize(w)
    return trace if len(trace.final.support()) < w.rank else None


def is_diskbusting(w):
    """Whether {w} lies in no proper free factor; rank 1 is False by
    convention."""
    return w.rank > 1 and free_factor_witness(w) is None
