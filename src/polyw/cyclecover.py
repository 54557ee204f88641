"""The Whitehead cycle-cover LP: one negative certificate for every disk
count and power.

Corner j of a disk reading w^k joins the dart of the edge arriving along
x_{j-1} to the dart of the edge leaving along x_j: up to the sign of
every dart, the edge {x_{j-1}, -x_j} of the Whitehead graph of w.  The
positions j on one dart pair e merge into a capacity m_e, the edge's
count in ``whitehead.whitehead_edges(w)``.  A vertex link of the surface
is a cycle of corners, and immersion makes its darts distinct.

Mirror lemma.  If a link repeats a corner position j, at disks D and D',
its vertex has only the two darts of j, so slot (D, j) is glued to
(D', j).  At the head of that edge both corners j + 1 hold the glued
edge's dart, so immersion glues their x_{j+1} edges as well, and so on
step after step: the two boundaries are glued letter for letter.  That
is a sphere from two disks or a half-rotation of one disk, with chi
equal to its disk count, and ``certify`` rejects it.  So in a certified
surface every link is a simple dart cycle of length >= 3, or a 2-cycle
on two positions of a pair with m_e >= 2.

Counting.  A component with V vertices, m disks and total |power| K has
K n corners and K n / 2 edges: chi - m = -1/2 * sum_v (deg v - 2).  With
N_c links of type c, x = N / K covers each pair exactly (sum_c A_ec x_c
= m_e), and chi < m needs sum_c (|c| - 2) x_c > 0.  A dual y with
(A^T y)_c >= |c| - 2 on every column and m . y <= 0 bounds that sum by
m . y <= 0 (weak duality): no component is certified.

Solving.  The LP has a closed form.  If a pair with m_e = 1 lies on no
dart cycle, only a 2-cycle could cover it, and m_e = 1 allows none: the
LP is infeasible.  Else, if no dart cycle exists, the optimum is 0.
Otherwise the all-ones vector on the pairs that lie on a cycle is a
nonnegative sum of cycles, by Seymour's theorem on the cone of circuits
(x_e <= x(D - e) on every cut D; *Sums of circuits*, 1979), and 2-cycles
fill the rest: the optimum is positive.  In the first two cases a dual
is y = 1 on the pairs on a cycle and 0 on the others, except one
uncovered pair with m_e = 1, which takes minus the capacity of the
covered pairs.  ``verify_dual`` enumerates the columns and checks y
exactly, so no verdict rests on the closed form; the tests check the
closed form against an exact simplex.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Optional

from .whitehead import whitehead_edges
from .words import is_proper_power, letter_key, letters_to_str

# Paths the cycle enumeration may extend: a rank-3 graph needs a few
# hundred at most, a complete rank-4 one about 16,000.  Past the bound
# no dual verifies, so the rung gives no verdict.
_MAX_PATHS = 4096


def _dart_cycles(pairs):
    """Every simple dart cycle of length >= 3 once, as a tuple of indices
    into ``pairs``; None past ``_MAX_PATHS``."""
    darts = sorted({x for e, _m in pairs for x in e}, key=letter_key)
    index = {x: k for k, x in enumerate(darts)}
    adjacent = [[] for _ in darts]
    for k, ((u, v), _m) in enumerate(pairs):
        adjacent[index[u]].append((index[v], k))
        adjacent[index[v]].append((index[u], k))
    cycles, paths = [], 0
    for s in range(len(darts)):  # from its least dart, one way round
        stack = [(s, (), 1 << s, -1)]  # dart, pairs used, darts seen, second dart
        while stack:
            v, used, seen, second = stack.pop()
            for u, k in adjacent[v]:
                if u == s:
                    if len(used) >= 2 and second < v:
                        cycles.append(used + (k,))
                elif u > s and not seen >> u & 1:
                    paths += 1
                    if paths > _MAX_PATHS:
                        return None
                    stack.append((u, used + (k,), seen | 1 << u, u if second < 0 else second))
    return cycles


def lp_dual(w) -> Optional[Dict[str, str]]:
    """A verified dual {pair: "p/q"} when the LP is infeasible or its
    optimum is <= 0; None when it is positive, for proper powers, and past
    the enumeration bound."""
    pairs = whitehead_edges(w)
    cycles = None if is_proper_power(w) else _dart_cycles(pairs)
    if cycles is None:
        return None
    on_cycle = {k for c in cycles for k in c}
    tight = [k for k, (_e, m) in enumerate(pairs) if m == 1 and k not in on_cycle]
    if on_cycle and not tight:
        return None
    y = [int(k in on_cycle) for k in range(len(pairs))]
    if tight:
        y[tight[0]] = -sum(m for k, (_e, m) in enumerate(pairs) if k in on_cycle)
    dual = {letters_to_str(e): "%d/1" % x for (e, _m), x in zip(pairs, y)}
    return dual if verify_dual(w, dual) else None


def verify_dual(w, dual) -> bool:
    """Whether ``dual`` proves w not polygonal: the columns are enumerated
    from w, and y is checked in exact rationals."""
    pairs = whitehead_edges(w)
    names = [letters_to_str(e) for e, _m in pairs]
    if not isinstance(dual, dict) or not set(dual) <= set(names):
        return False
    try:
        y = [Fraction(dual.get(name, 0)) for name in names]
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        return False
    cycles = _dart_cycles(pairs)
    if cycles is None:
        return False
    d = lcm(*(f.denominator for f in y))
    y = [int(f * d) for f in y]  # y / d, in integers
    return (
        sum(m * x for (_e, m), x in zip(pairs, y)) <= 0
        and all(x >= 0 for (_e, m), x in zip(pairs, y) if m >= 2)
        and all(sum(y[k] for k in c) >= (len(c) - 2) * d for c in cycles)
    )
