"""Explicit polygonal-surface constructions, one per constructive theorem,
plus the follower obstruction to polygonality of positive words.

Every constructor returns a :class:`PolygonalityCertificate` that has been
re-checked by the certifier; the certifier is the soundness authority.
The rank-2, isolated-b and height-one constructors return the declarative
certificate on a proper power; ``construct_from_tn`` raises
:class:`NotApplicableError` on one.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from math import lcm
from typing import Optional, Tuple

from .complexes import (
    DiskSpec,
    PolygonalityCertificate,
    SurfaceComplex,
    boundary_lambda,
    build_complex,
    certify,
    lambda_components,
    proper_power_certificate,
)
from .covers import permutation_cycles
from .invariants import (
    HeightOneShape,
    ResourceCapExceeded,
    TnCertificate,
    _height_one_reading,
    _isolated_b_junctions,
    _kind,
    canonical_pair,
    has_no_isolated_generators,
    is_simple_height_one,
    isolated_b_sign_condition,
    junction_pairs,
    rho,
    u_membership,
    verify_tn_certificate,
)
from .words import (
    MAX_WORD_LENGTH,
    CyclicWord,
    is_proper_power,
    syllable_decomposition,
    syllable_starts,
)


class NotApplicableError(ValueError):
    """The word is outside the construction's hypothesis class."""


class ConstructionError(RuntimeError):
    """A construction failed its own certification; indicates a bug."""


def _certify_gluing(gluing, w, disks, pairs, **record):
    """The certificate of a construction's surface, carrying the
    construction's ``record``; raises :class:`ConstructionError` naming
    the gluing when the certifier rejects the surface."""
    out = certify(w, disks, pairs)
    if not out.polygonal:
        raise ConstructionError("%s gluing failed certification: %s" % (gluing, out.detail))
    return replace(out, **record)


# --- the two-disk rotation surface -------------------------------------------


def two_disk_rotation_data(w: CyclicWord):
    """Two copies of the w-disk with the rotation-overlap pairing.

    Slot j of the first disk is glued to slot j+1 of the second exactly
    when the letters agree, which leaves one pair of free slots per
    syllable junction.  Returns (disks, pairs, junction slot pairs).
    """
    syl, starts = syllable_starts(w)
    if len(syl) < 2:
        raise NotApplicableError("need at least two syllables")
    letters = w.letters
    n = len(letters)
    pairs = [((0, j), (1, (j + 1) % n)) for j in range(n) if letters[j] == letters[(j + 1) % n]]
    # the last slot of each syllable on the first disk, the next one's first on the second
    junctions = [((0, (starts[i] + abs(e) - 1) % n), (1, starts[(i + 1) % len(starts)]))
                 for i, (_g, e) in enumerate(syl.parts)]
    disks = (DiskSpec(w, 1), DiskSpec(w, 1))
    return disks, pairs, tuple(junctions)


def two_disk_rotation(w: CyclicWord) -> SurfaceComplex:
    disks, pairs, _ = two_disk_rotation_data(w)
    return build_complex(disks, pairs)


# --- gluing boundary circles per a cycle certificate --------------------------


def construct_from_tn(w: CyclicWord, cert: TnCertificate) -> PolygonalityCertificate:
    """Close the two-disk rotation surface along a cycle certificate.

    Each cycle (c_1..c_r) strings together r junction circles, gluing the
    |c_j|-labeled free edge of consecutive circles; distinct |c_j| keep the
    quotient an immersion.
    """
    if is_proper_power(w):
        raise NotApplicableError("proper powers take the declarative certificate")
    if not has_no_isolated_generators(w):
        raise NotApplicableError("word has an isolated generator")
    element = rho(w)
    if not verify_tn_certificate(cert, element):
        raise ValueError("certificate does not re-sum to rho(w)")
    disks, pairs, junctions = two_disk_rotation_data(w)
    signed = junction_pairs(w)
    buckets = {}
    for idx, sp in enumerate(signed):
        buckets.setdefault(canonical_pair(sp), []).append(idx)
    glue = []
    for cycle in cert.cycles:
        r = len(cycle)
        # a junction for every cycle position, flipped when it reads the pair backwards
        row = []
        for j in range(r):
            pair = (cycle[j], cycle[(j + 1) % r])
            idx = buckets[canonical_pair(pair)].pop(0)
            row.append((junctions[idx], signed[idx] != pair))
        for j in range(r):
            (p_prev, q_prev), prev_flip = row[j - 1]
            (p_cur, q_cur), cur_flip = row[j]
            # the |c_j| edge is the second-component slot of the previous
            # junction and the first-component slot of the current one
            glue.append((p_prev if prev_flip else q_prev, q_cur if cur_flip else p_cur))
    assert all(not b for b in buckets.values())
    return _certify_gluing("cycle", w, disks, pairs + glue, tn_certificate=cert,
                           construction={"strategy": "tn-cycles",
                                         "cycles": [list(c) for c in cert.cycles]})


def sourcesink_classify(orientations) -> Tuple[int, int, int, int]:
    """Vertex census of an even cycle with alternating clean/dirty edges.

    ``orientations[t]`` is +-1 for the edge from vertex t to t+1 (clean
    edges at even t).  Returns (sources, sinks, filters, pollutants).
    """
    n = len(orientations)
    if n % 2 or n == 0 or any(h not in (1, -1) for h in orientations):
        raise ValueError("need an even, positive number of +-1 orientations")
    census = Counter(_kind(orientations[t - 1], orientations[t], t % 2 == 0) for t in range(n))
    return tuple(census[kind] for kind in ("source", "sink", "filter", "pollutant"))


def construct_f2_no_isolated(w: CyclicWord) -> PolygonalityCertificate:
    """Rank-2 words with every syllable exponent of size > 1.

    Junction circles are sources/sinks/filters/pollutants; equal counts
    pair them into two-element cycles, which always lands in the cycle
    monoid.
    """
    if w.rank != 2:
        raise NotApplicableError("rank-2 construction")
    if not has_no_isolated_generators(w):
        raise NotApplicableError("word has an isolated generator")
    if len(w.support()) < 2:
        raise NotApplicableError("single-generator word")
    if is_proper_power(w):
        return proper_power_certificate(w)
    # the syllables alternate from an a-syllable, and the a-syllables are clean
    sources, sinks, filters, pollutants = sourcesink_classify(
        [1 if e > 0 else -1 for _g, e in syllable_decomposition(w).parts])
    if sources != sinks or filters != pollutants:
        raise ConstructionError("source/sink census mismatch on %s" % w)
    cycles = [(1, -2)] * sinks + [(1, 2)] * pollutants
    cert = construct_from_tn(w, TnCertificate(2, tuple(cycles)))
    return replace(cert, construction={"strategy": "f2-no-isolated", "sources": sources,
                                       "filters": filters})


def _reversing_gluing(S: SurfaceComplex, ca: int, cb: int):
    """Glue boundary circle ca to circle cb walked backwards.

    Entry k of ca meets entry r - k of cb at the one offset r where every
    glued pair carries the same generator and the two arrows run opposite
    along their walks.  Such a reflection is a homeomorphism of the
    circles that agrees with the head-to-head vertex identification, so
    the seam pinches no further vertices.  Returns None if no offset fits.
    """
    A, B = S.boundary[ca], S.boundary[cb]
    n = len(A)
    if len(B) != n:
        return None

    def arrows(circle):
        # per entry: (generator, does the arrow run along the walk?)
        return [(abs(S.slot_letter(s)), f == (S.slot_letter(s) > 0)) for s, f in circle]

    ka, kb = arrows(A), arrows(B)
    for r in range(n):
        if all(kb[(r - k) % n] == (g, not along) for k, (g, along) in enumerate(ka)):
            return [(A[k][0], B[(r - k) % n][0]) for k in range(n)]
    return None


def construct_isolated_b(w: CyclicWord) -> PolygonalityCertificate:
    """Rank-2 words a^{p_1} b^{q_1} ... with |p_i| > 1, |q_i| = 1 and
    vanishing junction sign sum.

    The rotation surface has one four-edge boundary circle per factor.
    Sources pair with sinks and filters with pollutants, and each pair of
    circles is glued by its one reversing identification (see
    :func:`_reversing_gluing`); the closed surface is certified once.
    """
    cond = isolated_b_sign_condition(w)
    if cond is None:
        raise NotApplicableError("not of the isolated-b shape")
    if not cond:
        raise NotApplicableError("junction sign sum does not vanish")
    if is_proper_power(w):
        return proper_power_certificate(w)
    disks, pairs, _ = two_disk_rotation_data(w)
    S = build_complex(disks, pairs)
    circle_of = {slot: ci for ci, comp in enumerate(S.boundary) for slot, _f in comp}
    groups = defaultdict(list)  # circles by the kind of the junction at their b
    for kind, pos in _isolated_b_junctions(w):
        groups[kind].append(circle_of[(0, pos)])
    matches = [pair for a, b in (("source", "sink"), ("filter", "pollutant"))
               for pair in zip(sorted(groups[a]), sorted(groups[b]))]
    glue = []
    for ca, cb in matches:
        seam = _reversing_gluing(S, ca, cb)
        if seam is None:
            raise ConstructionError("boundary circles %d and %d admit no reversing "
                                    "identification on %s" % (ca, cb, w))
        glue.extend(seam)
    return _certify_gluing("isolated-b", w, disks, pairs + glue, construction={
        "strategy": "isolated-b", "sources": len(groups["source"]),
        "filters": len(groups["filter"])})


# --- simple height-one words --------------------------------------------------


def _height_one_positions(shape: HeightOneShape, k: int):
    """Slot positions (canonical coordinates) of the two b-edges of every
    factor on a disk reading word^k; factor j is 0-based.

    alpha[j] is the b-edge entered before the q-run of factor j, beta[j]
    the one after it.
    """
    period = sum(abs(p) + abs(q) + 2 for p, q in zip(shape.p_exps, shape.q_exps))
    total = period * k
    alphas, betas, pos = [], [], -shape.layout_offset
    for _copy in range(k):
        for p, q in zip(shape.p_exps, shape.q_exps):
            alphas.append((pos + abs(p)) % total)
            betas.append((pos + abs(p) + 1 + abs(q)) % total)
            pos += abs(p) + abs(q) + 2
    return alphas, betas


def height_one_q_disk_pairing(shape: HeightOneShape, k: int, disk: int):
    """Pair each factor's two b-edges with each other (same disk)."""
    alphas, betas = _height_one_positions(shape, k)
    return [((disk, a), (disk, b)) for a, b in zip(alphas, betas)]


def height_one_p_disk_pairing(shape: HeightOneShape, k: int, disk: int):
    """Chain pairing on one disk: the b-edge after factor j-1 meets the
    b-edge before factor j."""
    alphas, betas = _height_one_positions(shape, k)
    nf = len(alphas)
    return [((disk, betas[(j - 1) % nf]), (disk, alphas[j])) for j in range(nf)]


def _check_block_slots(w: CyclicWord, power: int):
    """Refuse disks reading w^power that, doubled, hold more slots than a certificate may."""
    if 2 * power * len(w) > MAX_WORD_LENGTH:
        raise ResourceCapExceeded("the block needs %d slots > cap %d"
                                  % (power * len(w), MAX_WORD_LENGTH // 2))


def construct_height_one(w: CyclicWord) -> PolygonalityCertificate:
    """Simple height-one words with pp' <= q^2 and qq' <= p^2.

    The construction needs pp' >= qq'.  Otherwise w is re-read with the
    roles of the run families exchanged (the a-runs after b^-1 lead; this
    is b -> b^-1, see :class:`HeightOneShape`), and the result records
    ``swapped``.  Either way it runs on w's own disks: it builds the block
    of p-side and q-side disks with a consistent b-side-pairing (shifting
    the chain pairing across disks on a chosen set of weight-one factors),
    reads off the boundary invariant, finds a monoid-U matching (doubling
    the block when only the doubled invariant matches), glues boundary
    circles pairwise per the matching, and certifies once.  A block that,
    doubled, would hold more slots than a certificate may is refused
    before it is built, with :class:`ResourceCapExceeded`.
    """
    shape = is_simple_height_one(w)
    if shape is None:
        raise NotApplicableError("not a simple height-one word")
    if not shape.inequality():
        raise NotApplicableError("inequality pp' <= q^2, qq' <= p^2 fails")
    if is_proper_power(w):
        return proper_power_certificate(w)
    swapped = shape.p * shape.p_prime < shape.q * shape.q_prime
    if swapped:
        shape = _height_one_reading(w, -1)

    l = len(shape.p_exps)
    p_abs = [abs(x) for x in shape.p_exps]
    q_abs = [abs(x) for x in shape.q_exps]
    P, Q = shape.p, shape.q
    r = P * shape.p_prime - Q * shape.q_prime

    # x_j: how many chain shifts target factor j's q-run; greedy on big runs
    x, remaining = [0] * l, r
    for j in sorted(range(l), key=lambda j: (-q_abs[j], j)):
        if q_abs[j] > 1:
            x[j] = min(remaining, Q * q_abs[j])
            remaining -= x[j]
    if remaining:
        raise ConstructionError("cannot distribute %d chain shifts" % remaining)
    # copies of the disk blocks: only the targeted q-runs enter the permutation
    c = lcm(*(q_abs[j] for j in range(l) if x[j]))
    _check_block_slots(w, c * (P + Q))
    # weight-one p-factors (indices 0-based over one w^P block of factors)
    ones = [j for j in range(P * l) if p_abs[j % l] == 1]
    assert len(ones) == P * shape.p_prime
    A = ones[:r]
    targets = [j for j in range(l) for _ in range(x[j])]
    sigma = dict(zip(A, targets))

    def g_of(k0, i):
        qj = q_abs[sigma[k0]]
        return i + 1 if (i + 1) % qj != 0 else i + 1 - qj

    perm = list(range(c))
    for k0 in sorted(A):
        perm = [g_of(k0, perm[i]) for i in range(c)]
    d = lcm(*(size for _v, size in permutation_cycles(perm)))
    _check_block_slots(w, c * d * (P + Q))

    disks = [DiskSpec(w, d * P) for _ in range(c)] + [
        DiskSpec(w, d * Q) for _ in range(c)
    ]
    alphas_p, betas_p = _height_one_positions(shape, d * P)
    nf_p = len(alphas_p)
    pairs = []
    for i in range(c):
        for j in range(nf_p):
            jm = j % (P * l)
            target = g_of(jm, i) if jm in sigma else i
            pairs.append(((i, betas_p[(j - 1) % nf_p]), (target % c, alphas_p[j])))
    for i in range(c):
        pairs.extend(height_one_q_disk_pairing(shape, d * Q, c + i))

    S = build_complex(disks, pairs)
    invariant = boundary_lambda(S)
    u_cert = u_membership(invariant)
    doubled = u_cert is None
    if doubled:
        u_cert = u_membership(invariant + invariant)
        if u_cert is None:
            raise ConstructionError("doubled boundary invariant not in U for %s" % w)
    components = lambda_components(S)
    if doubled:
        # the block and a copy of it: the copy's circles are the block's, on
        # disks and vertices shifted past the block's
        shift, v_shift = len(disks), S.n_vertices
        disks = disks + disks
        pairs = pairs + [
            ((a[0] + shift, a[1]), (b[0] + shift, b[1])) for a, b in pairs
        ]
        components = components + [
            replace(comp, slots=tuple((i + shift, j) for i, j in comp.slots),
                    vertices=tuple(v + v_shift for v in comp.vertices))
            for comp in components
        ]

    by_term = {}
    for ci, comp in enumerate(components):
        by_term.setdefault(comp.term, []).append(ci)
    glue = []
    for up in u_cert.pairs:
        ca = components[by_term[up.a].pop(0)]
        cb = components[by_term[up.b].pop(0)]
        if up.offset is None:
            glue.extend(zip(ca.slots, cb.slots))
        else:
            # read from their starts, vertex s of ca meets vertex s + offset of cb
            a = ca.slots[ca.start:] + ca.slots[:ca.start]
            k = (cb.start + up.offset) % len(cb.slots)
            glue.extend(zip(a, cb.slots[k:] + cb.slots[:k]))
    record = {"strategy": "height-one", "c": c, "d": d, "doubled": doubled,
              "shift_factors": sorted(A), "shift_targets": x}
    if swapped:
        record["swapped"] = True
    return _certify_gluing("height-one", w, disks, pairs + glue, u_certificate=u_cert,
                           construction=record)


# --- non-polygonality evidence -------------------------------------------------


@dataclass(frozen=True)
class NonPolygonalityEvidence:
    """A positive rank-2 word where some generator is always followed (or
    always preceded) by one fixed letter; no closed certified surface can
    exist, because a vertex of degree four would need two outgoing edges
    of the forced label and degree two throughout forces chi = m."""

    word: CyclicWord
    generator: int
    kind: str  # "follower" | "predecessor"
    forced: int
    inversions: frozenset


def nonpolygonality_follower_obstruction(w: CyclicWord) -> Optional[NonPolygonalityEvidence]:
    """Evidence of non-polygonality for positivizable rank-2 words."""
    if w.rank != 2 or len(w.support()) < 2 or is_proper_power(w):
        return None
    present = set(w.letters)
    if any(-x in present for x in present):
        return None  # a generator with both signs: no inversion makes w positive
    inv = frozenset(-x for x in present if x < 0)
    # w with inv inverted, read from w's own start: followers and
    # predecessors do not depend on the rotation
    v = [abs(x) for x in w.letters]
    after = v[1:] + v[:1]
    for gen in (1, 2):
        followers = {b for a, b in zip(v, after) if a == gen}
        if len(followers) == 1:
            return NonPolygonalityEvidence(w, gen, "follower", followers.pop(), inv)
        preds = {a for a, b in zip(v, after) if b == gen}
        if len(preds) == 1:
            return NonPolygonalityEvidence(w, gen, "predecessor", preds.pop(), inv)
    return None
