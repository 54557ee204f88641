"""Abelian-monoid invariants attached to syllable junctions and boundaries.

The rho invariant of a word is the multiset of signed generator pairs read
off consecutive syllables; membership in the submonoid T_n generated by
cycles with pairwise distinct generator absolute values licenses the
two-disk surface construction.  The lambda invariant of a boundary circle
records the sign of its transverse b-edges and the composition of a-edge
run lengths; membership in the monoid U licenses gluing boundary circles
into a closed immersed surface.

Both memberships run one count-vector decomposition, :func:`_decompose`.
It anchors at the least type with a nonzero count and tries the generators
through the anchor in a fixed order: for T_n the cycles through the anchor
pair, depth first, the closing pair before extensions in type and
orientation order; for U the feasible partners j >= k of the anchor type k,
one total class at a time in increasing total, since terms of different
totals never pair.  Memoizing failed residual vectors prunes only subtrees
holding no decomposition, so None is a complete negative and the result is
the first decomposition in move order, the one depth-first backtracking over
the sorted pairs or terms finds.  The caps bound no recursion, only the size
of the construction a member licenses, until the benchmark is re-based.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby
from typing import Optional, Tuple

from .words import CyclicWord, rotation_offset, syllable_decomposition


class ResourceCapExceeded(RuntimeError):
    pass


DEFAULT_PAIR_CAP = 512
DEFAULT_TERM_CAP = 2048


def _decompose(counts, moves):
    """The payloads of the first decomposition of a type-count vector, or None.

    ``moves(anchor, counts)`` yields the ``(used types, payload)`` moves through
    the least type with a nonzero count, in choice order, each one available."""
    counts = list(counts)
    failed, frames, taken = set(), [], []  # taken[i]: the move frame i tries
    while True:
        anchor = next((t for t, c in enumerate(counts) if c), None)
        if anchor is None:
            return [payload for _used, payload in taken]
        frames.append((tuple(counts), iter(moves(anchor, counts))))
        while frames:
            residual, untried = frames[-1]
            if len(taken) == len(frames):  # back from a failed move: undo it
                for t in taken.pop()[0]:
                    counts[t] += 1
            move = next(untried, None)
            if move is None:
                failed.add(residual)
                frames.pop()
                continue
            taken.append(move)
            for t in move[0]:
                counts[t] -= 1
            if tuple(counts) not in failed:
                break
        else:
            return None


def canonical_pair(pair):
    """Representative of {(i,j), (-j,-i)}: the lexicographically least."""
    i, j = pair
    return min((i, j), (-j, -i))


@dataclass(frozen=True)
class RhoElement:
    """A multiset of canonical pairs (i,j), |i| != |j|, over generators ±1..±n."""

    rank: int
    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        canon = []
        for p in self.pairs:
            i, j = canonical_pair(tuple(p))
            if abs(i) == abs(j):
                raise ValueError("pair %r has equal generator absolute values" % (p,))
            if not (1 <= abs(i) <= self.rank and 1 <= abs(j) <= self.rank):
                raise ValueError("pair %r out of rank %d" % (p, self.rank))
            canon.append((i, j))
        object.__setattr__(self, "pairs", tuple(sorted(canon)))

    def __len__(self):
        return len(self.pairs)

    def __add__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return RhoElement(self.rank, self.pairs + other.pairs)

    def __str__(self):
        return " + ".join("(%d,%d)" % p for p in self.pairs) or "0"


def rho(w: CyclicWord) -> RhoElement:
    """Sum of (sign(p_i) k_i, sign(p_{i+1}) k_{i+1}) over cyclic syllable pairs.

    A single-syllable word has an empty cyclic junction sum and yields the
    empty element.
    """
    pairs = junction_pairs(w)
    if len(pairs) == 1:  # one syllable: its only "junction" is with itself
        return RhoElement(w.rank, ())
    return RhoElement(w.rank, pairs)


def junction_pairs(w: CyclicWord):
    """The signed junction pairs in syllable order (not canonicalized)."""
    parts = syllable_decomposition(w).parts
    out = []
    for i, (g, e) in enumerate(parts):
        g2, e2 = parts[(i + 1) % len(parts)]
        out.append(((1 if e > 0 else -1) * g, (1 if e2 > 0 else -1) * g2))
    return tuple(out)


@dataclass(frozen=True)
class TnCertificate:
    """A partition of a RhoElement into generator cycles.

    Each cycle (c_1,...,c_r) has pairwise distinct |c_j| and contributes
    the pairs (c_1,c_2), ..., (c_r,c_1).
    """

    rank: int
    cycles: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(tuple(c) for c in self.cycles))
        for c in self.cycles:
            if len(c) < 2:
                raise ValueError("cycle %r too short" % (c,))
            if len({abs(x) for x in c}) != len(c):
                raise ValueError("cycle %r repeats a generator" % (c,))

    def resummation(self):
        pairs = []
        for c in self.cycles:
            for i in range(len(c)):
                pairs.append((c[i], c[(i + 1) % len(c)]))
        return RhoElement(self.rank, tuple(pairs))

    def __str__(self):
        return " + ".join(
            "(" + " ".join(str(x) for x in c) + ")" for c in self.cycles
        )


def verify_tn_certificate(cert: TnCertificate, element: RhoElement) -> bool:
    return cert.rank == element.rank and cert.resummation().pairs == element.pairs


def tn_membership(element: RhoElement) -> Optional[TnCertificate]:
    """Decompose the multiset into generator cycles, or exhaustively fail."""
    if len(element) > DEFAULT_PAIR_CAP:
        raise ResourceCapExceeded("element has %d pairs > cap %d"
                                  % (len(element), DEFAULT_PAIR_CAP))
    types = [p for p, _run in groupby(element.pairs)]
    index = {p: t for t, p in enumerate(types)}
    starts = defaultdict(list)  # letter x -> (type, y) per orientation (x, y)
    for t, (i, j) in enumerate(types):
        starts[i].append((t, j))
        starts[-j].append((t, -i))

    def cycles(anchor, counts):
        # a cycle never repeats a pair type: the walk leaves counts alone
        def walk(chain, used):
            closer = index.get(canonical_pair((chain[-1], chain[0])))
            if closer is not None and counts[closer]:
                yield used + (closer,), chain
            if len(chain) < element.rank:
                for t, y in starts[chain[-1]]:
                    if counts[t] and all(abs(y) != abs(x) for x in chain):
                        yield from walk(chain + (y,), used + (t,))

        i, j = types[anchor]
        yield from walk((i, j), (anchor,))
        yield from walk((-j, -i), (anchor,))

    found = _decompose([len(list(run)) for _p, run in groupby(element.pairs)], cycles)
    if found is None:
        return None
    cert = TnCertificate(element.rank, found)
    assert verify_tn_certificate(cert, element)
    return cert


def canonical_composition(comp):
    """Least rotation of a composition tuple."""
    comp = tuple(comp)
    if not comp or any(c < 1 for c in comp):
        raise ValueError("composition entries must be >= 1")
    n = len(comp)
    return min(comp[r:] + comp[:r] for r in range(n))


@dataclass(frozen=True)
class LambdaTerm:
    sign: int  # +1 = all b-edges outgoing, -1 = all incoming
    composition: Tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        object.__setattr__(self, "composition", canonical_composition(self.composition))

    @property
    def total(self):
        return sum(self.composition)

    def sort_key(self):
        return (self.total, -self.sign, self.composition)

    def __str__(self):
        return "L%s(%s)" % ("+" if self.sign > 0 else "-",
                            ",".join(str(c) for c in self.composition))


def lam(sign, *composition):
    """Shorthand: lam('+', 2, 2) is the term with outgoing b's and composition (2,2)."""
    s = 1 if sign in (1, "+") else -1
    return LambdaTerm(s, tuple(composition))


@dataclass(frozen=True)
class LambdaMultiset:
    terms: Tuple[LambdaTerm, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple(sorted(self.terms, key=LambdaTerm.sort_key))
        )

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        return LambdaMultiset(self.terms + other.terms)

    def __mul__(self, k):
        return LambdaMultiset(self.terms * k)

    __rmul__ = __mul__

    def __str__(self):
        return " + ".join(str(t) for t in self.terms) or "0"


def partial_sums(comp):
    total = 0
    out = []
    for c in comp:
        total += c
        out.append(total)
    return out


def offset_disjoint(comp1, comp2, c):
    """Whether (c + partial sums of comp1) misses the partial sums of comp2 mod m."""
    m = sum(comp1)
    if m != sum(comp2):
        return False
    s1 = {(c + s) % m for s in partial_sums(comp1)}
    s2 = {s % m for s in partial_sums(comp2)}
    return not (s1 & s2)


def same_sign_offset(comp1, comp2):
    """Least witness offset making the partial-sum sets disjoint, or None."""
    m = sum(comp1)
    if m != sum(comp2):
        return None
    s1 = partial_sums(comp1)
    s2 = {s % m for s in partial_sums(comp2)}
    return next((c for c in range(m) if all((c + s) % m not in s2 for s in s1)), None)


@dataclass(frozen=True)
class UPair:
    a: LambdaTerm
    b: LambdaTerm
    offset: Optional[int]  # None for an opposite-sign pair

    def verify(self):
        if self.a.total != self.b.total:
            return False
        if self.a.sign != self.b.sign:
            return self.offset is None
        return self.offset is not None and offset_disjoint(
            self.a.composition, self.b.composition, self.offset
        )


@dataclass(frozen=True)
class UCertificate:
    pairs: Tuple[UPair, ...]

    def resummation(self):
        terms = []
        for p in self.pairs:
            terms.extend((p.a, p.b))
        return LambdaMultiset(tuple(terms))

    def verify_against(self, multiset: LambdaMultiset):
        return all(p.verify() for p in self.pairs) and (
            self.resummation().terms == multiset.terms
        )


def u_membership(multiset: LambdaMultiset) -> Optional[UCertificate]:
    """Perfect matching of the terms into U generators, or exhaustive None."""
    if len(multiset) > DEFAULT_TERM_CAP:
        raise ResourceCapExceeded("multiset has %d terms > cap %d"
                                  % (len(multiset), DEFAULT_TERM_CAP))
    pairs = []
    for _total, group in groupby(multiset.terms, key=lambda t: t.total):
        types, counts = zip(*[(t, len(list(run))) for t, run in groupby(group)])
        if sum(counts) % 2:
            return None
        partners = [[] for _t in types]
        for k, j in combinations_with_replacement(range(len(types)), 2):
            a, b = types[k], types[j]
            if a.sign != b.sign:
                partners[k].append((j, UPair(a, b, None)))
            elif (offset := same_sign_offset(a.composition, b.composition)) is not None:
                partners[k].append((j, UPair(a, b, offset)))

        def moves(k, counts):
            for j, pair in partners[k]:
                if counts[j] > (j == k):
                    yield (k, j), pair

        found = _decompose(counts, moves)
        if found is None:
            return None
        pairs.extend(found)
    cert = UCertificate(tuple(pairs))
    assert cert.verify_against(multiset)
    return cert


@dataclass(frozen=True)
class ShortcutWitness:
    rotated: Tuple[int, ...]
    offset: int

    def verify(self):
        return offset_disjoint(self.rotated, self.rotated, self.offset)


def submonoid_shortcut(term: LambdaTerm) -> Optional[ShortcutWitness]:
    """Witness that twice the term lies in U, via either small-entry or
    dominant-entry structure; None when neither condition applies."""
    comp = term.composition
    m = term.total
    if all(c > 1 for c in comp):
        w = ShortcutWitness(comp, 1)
        if w.verify():
            return w
    for i0, c in enumerate(comp):
        if 2 * c >= 2 + m:
            rotated = comp[i0:] + comp[:i0]
            w = ShortcutWitness(rotated, m + 1 - rotated[0])
            if w.verify():
                return w
    return None


# --- hypothesis predicates for the constructive theorems ---------------------


def has_no_isolated_generators(w: CyclicWord) -> bool:
    """Every syllable exponent has absolute value > 1."""
    return all(abs(e) > 1 for _, e in syllable_decomposition(w).parts)


def _alternating_ab_exponents(w: CyclicWord):
    """Exponent lists (p_i), (q_i) when w = prod a^{p_i} b^{q_i}, else None.

    The first returned run is the a-run the canonical rotation starts with;
    generators other than 1, 2 disqualify.
    """
    if w.rank != 2:
        return None
    parts = syllable_decomposition(w).parts
    if len(parts) < 2 or len(parts) % 2:
        return None
    if parts[0][0] == 2:
        parts = parts[1:] + parts[:1]
    ps, qs = [], []
    for i in range(0, len(parts), 2):
        if parts[i][0] != 1 or parts[i + 1][0] != 2:
            return None
        ps.append(parts[i][1])
        qs.append(parts[i + 1][1])
    return tuple(ps), tuple(qs)


def isolated_b_sign_condition(w: CyclicWord):
    """For w = prod a^{p_i} b^{q_i} with |p_i|>1, |q_i|=1: whether
    sum_i (sign(p_i q_i) + sign(p_{i+1} q_i)) vanishes.  None when the word
    is not of that shape."""
    shape = _alternating_ab_exponents(w)
    if shape is None:
        return None
    ps, qs = shape
    if not all(abs(p) > 1 for p in ps) or not all(abs(q) == 1 for q in qs):
        return None
    l = len(ps)
    total = 0
    for i in range(l):
        sign = lambda x: 1 if x > 0 else -1
        total += sign(ps[i] * qs[i]) + sign(ps[(i + 1) % l] * qs[i])
    return total == 0


@dataclass(frozen=True)
class HeightOneShape:
    """Parameters of a simple height-one word prod a^{p_i} (a^{q_i})^b.

    Exponents keep their signs; p, q, p', q' follow the absolute-value
    convention.  ``layout_letters`` is the factor-aligned spelling, and
    ``layout_offset`` the rotation taking it to canonical coordinates.
    """

    p_exps: Tuple[int, ...]
    q_exps: Tuple[int, ...]
    layout_offset: int

    @property
    def l(self):
        return len(self.p_exps)

    @property
    def p(self):
        return sum(abs(x) for x in self.p_exps)

    @property
    def q(self):
        return sum(abs(x) for x in self.q_exps)

    @property
    def p_prime(self):
        return sum(1 for x in self.p_exps if abs(x) == 1)

    @property
    def q_prime(self):
        return sum(1 for x in self.q_exps if abs(x) == 1)

    def layout_letters(self):
        letters = []
        for p, q in zip(self.p_exps, self.q_exps):
            letters.extend([1 if p > 0 else -1] * abs(p))
            letters.append(-2)
            letters.extend([1 if q > 0 else -1] * abs(q))
            letters.append(2)
        return tuple(letters)


def is_simple_height_one(w: CyclicWord):
    """Recognize w = prod a^{p_i}(a^{q_i})^b with uniform-sign p's and q's.

    Returns the :class:`HeightOneShape` or None.  A q-run is an a-run
    preceded (cyclically) by b^-1, a p-run one preceded by b.
    """
    if w.rank != 2:
        return None
    parts = syllable_decomposition(w).parts
    if len(parts) % 2 or len(parts) < 2:
        return None
    runs = []  # (preceding b exponent, a exponent) in cyclic order
    n = len(parts)
    a_positions = [i for i, (g, _) in enumerate(parts) if g == 1]
    if len(a_positions) != n // 2:
        return None
    for i in a_positions:
        bg, be = parts[(i - 1) % n]
        if bg != 2 or abs(be) != 1:
            return None
        runs.append((be, parts[i][1]))
    # walk factors: a p-run follows b^{+1}, then b^{-1}, q-run, b^{+1}, ...
    first_p = next((k for k, (be, _) in enumerate(runs) if be == 1), None)
    if first_p is None:
        return None
    runs = runs[first_p:] + runs[:first_p]
    ps, qs = [], []
    for k, (be, ae) in enumerate(runs):
        if be != (1 if k % 2 == 0 else -1):
            return None
        (ps if k % 2 == 0 else qs).append(ae)
    if len(ps) != len(qs):
        return None
    if len({1 if p > 0 else -1 for p in ps}) != 1:
        return None
    if len({1 if q > 0 else -1 for q in qs}) != 1:
        return None
    shape = HeightOneShape(tuple(ps), tuple(qs), 0)
    offset = rotation_offset(shape.layout_letters(), w.letters)
    if offset is None:
        return None
    return HeightOneShape(tuple(ps), tuple(qs), offset)


def height_one_inequality(w: CyclicWord):
    """pp' <= q^2 and qq' <= p^2 for simple height-one words; None otherwise."""
    shape = is_simple_height_one(w)
    if shape is None:
        return None
    return (shape.p * shape.p_prime <= shape.q ** 2
            and shape.q * shape.q_prime <= shape.p ** 2)
