"""Whitehead minimization, orbit equivalence, and the diskbusting test.

Two kinds of elementary automorphisms are used: relabelings (a signed
permutation of the generators) and multiplier moves (A, a) with a in A,
a^-1 not in A, sending x to x, xa, a^-1 x or a^-1 x a according to which
of x, x^-1 lie in A.  Greedy descent through multiplier moves reaches a
shortest representative of the automorphism orbit (peak reduction), and
the length-preserving moves connect all shortest representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

from .words import (
    CyclicWord,
    EmptyWordError,
    Word,
    cyclic_reduce,
    free_reduce,
    inverse_letters,
    letter_key,
    word_key,
)


class OrbitCapExceeded(RuntimeError):
    """Orbit enumeration hit the configured cap; the answer is inconclusive."""


class NotMinimalError(ValueError):
    pass


DEFAULT_ORBIT_CAP = 10 ** 6


@dataclass(frozen=True)
class FirstKindMove:
    """Signed generator permutation: generator g maps to the letter images[g-1]."""

    images: Tuple[int, ...]

    def sort_key(self):
        return (0, tuple(letter_key(x) for x in self.images))

    def image_of(self, x):
        return self.images[x - 1] if x > 0 else -self.images[-x - 1]

    def apply(self, w):
        return CyclicWord(w.rank, tuple(self.image_of(x) for x in w.letters))

    def __str__(self):
        return "perm[%s]" % ",".join(str(i) for i in self.images)


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
        out = []
        images = [self.image_of_generator(g) for g in range(1, w.rank + 1)]
        for x in w.letters:
            if x > 0:
                out.extend(images[x - 1])
            else:
                out.extend(inverse_letters(images[-x - 1]))
        return cyclic_reduce(Word(w.rank, tuple(out)))

    def __str__(self):
        a = self.multiplier
        mem = ",".join(str(x) for x in sorted(self.members, key=letter_key))
        return "mult[a=%d; A={%s}]" % (a, mem)


def signed_letters(rank):
    out = []
    for g in range(1, rank + 1):
        out.extend((g, -g))
    return out


def all_first_kind_moves(rank):
    moves = []
    for perm in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            images = tuple(s * p for s, p in zip(signs, perm))
            if images == tuple(range(1, rank + 1)):
                continue
            moves.append(FirstKindMove(images))
    moves.sort(key=FirstKindMove.sort_key)
    return moves


def all_second_kind_moves(rank):
    moves = []
    for a in signed_letters(rank):
        rest = [x for x in signed_letters(rank) if x != a and x != -a]
        for mask in range(1 << len(rest)):
            members = frozenset([a] + [x for i, x in enumerate(rest) if mask >> i & 1])
            if len(members) == 1:
                continue
            moves.append(SecondKindMove(a, members))
    moves.sort(key=SecondKindMove.sort_key)
    return moves


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

    At each step every multiplier move is tried; among the moves achieving
    the best shortening the least one (fixed move encoding) is applied.
    """
    moves = all_second_kind_moves(w.rank)
    steps = []
    current = w
    while True:
        best_move = None
        best_word = None
        for move in moves:  # already sorted, so first strict improvement is least
            image = move.apply(current)
            if best_word is None or len(image) < len(best_word):
                best_move, best_word = move, image
        if best_word is None or len(best_word) >= len(current):
            break
        steps.append((best_move, best_word))
        current = best_word
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
            for move in itertools.chain(first, second):
                image = move.apply(word)
                if len(image) < target_len:
                    raise NotMinimalError(
                        "%s is not minimal: %s shortens it" % (word, move)
                    )
                if len(image) > target_len:
                    continue
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
    edges = []
    n = len(w.letters)
    for i in range(n):
        x, y = w.letters[i], w.letters[(i + 1) % n]
        edges.append(frozenset((x, -y)) if x != -y else frozenset((x,)))
    return edges


def _connected_without(vertices, adjacency, removed):
    remaining = [v for v in vertices if v != removed]
    if not remaining:
        return True
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
    for e in whitehead_graph(w):
        e = tuple(e)
        if len(e) == 2:
            adjacency[e[0]].add(e[1])
            adjacency[e[1]].add(e[0])
    if not _connected_without(vertices, adjacency, None):
        return None
    for v in vertices:
        if not _connected_without(vertices, adjacency, v):
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
