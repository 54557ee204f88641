"""Explicit polygonal-surface constructions, one per constructive theorem,
plus the follower obstruction to polygonality of positive words.

Every constructor returns a :class:`PolygonalityCertificate` that has been
re-checked by the certifier; the certifier is the soundness authority.
Proper powers short-circuit to the declarative certificate.
"""

from __future__ import annotations

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
from .invariants import (
    HeightOneShape,
    TnCertificate,
    _height_one_reading,
    canonical_pair,
    has_no_isolated_generators,
    is_simple_height_one,
    isolated_b_sign_condition,
    junction_pairs,
    partial_sums,
    rho,
    tn_membership,
    u_membership,
    verify_tn_certificate,
)
from .words import (
    CyclicWord,
    Relabeling,
    is_proper_power,
    syllable_starts,
    transform,
)


class NotApplicableError(ValueError):
    """The word is outside the construction's hypothesis class."""


class ConstructionError(RuntimeError):
    """A construction failed its own certification; indicates a bug."""


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
    pairs = []
    for j in range(n):
        if letters[j] == letters[(j + 1) % n]:
            pairs.append(((0, j), (1, (j + 1) % n)))
    junctions = []
    for i, (g, e) in enumerate(syl.parts):
        last = (starts[i] + abs(e) - 1) % n
        nxt = starts[(i + 1) % len(syl.parts)]
        junctions.append(((0, last), (1, nxt)))
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
    # assign a junction to every cycle position, tracking orientation flips
    assignments = []
    for cycle in cert.cycles:
        r = len(cycle)
        row = []
        for j in range(r):
            pair = (cycle[j], cycle[(j + 1) % r])
            idx = buckets[canonical_pair(pair)].pop(0)
            row.append((idx, signed[idx] != pair))
        assignments.append(row)
    assert all(not b for b in buckets.values())
    glue = []
    for cycle, row in zip(cert.cycles, assignments):
        r = len(cycle)
        for j in range(r):
            prev_idx, prev_flip = row[(j - 1) % r]
            cur_idx, cur_flip = row[j]
            # the |c_j| edge is the second-component slot of the previous
            # junction and the first-component slot of the current one
            p_prev, q_prev = junctions[prev_idx]
            p_cur, q_cur = junctions[cur_idx]
            slot_a = p_prev if prev_flip else q_prev
            slot_b = q_cur if cur_flip else p_cur
            glue.append((slot_a, slot_b))
    out = certify(w, disks, pairs + glue)
    if not out.polygonal:
        raise ConstructionError("cycle gluing failed certification: %s" % out.detail)
    out.tn_certificate = cert
    out.construction = {
        "strategy": "tn-cycles",
        "cycles": [list(c) for c in cert.cycles],
    }
    return out


def sourcesink_classify(orientations) -> Tuple[int, int, int, int]:
    """Vertex census of an even cycle with alternating clean/dirty edges.

    ``orientations[t]`` is +-1 for the edge from vertex t to t+1 (clean
    edges at even t).  Returns (sources, sinks, filters, pollutants).
    """
    n = len(orientations)
    if n % 2 or n == 0:
        raise ValueError("need an even, positive number of edges")
    if any(h not in (1, -1) for h in orientations):
        raise ValueError("orientations must be +-1")
    sources = sinks = filters = pollutants = 0
    for t in range(n):
        prev = orientations[(t - 1) % n]
        nxt = orientations[t]
        if prev == -1 and nxt == 1:
            sources += 1
        elif prev == 1 and nxt == -1:
            sinks += 1
        elif prev == 1:  # both +1: incoming edge is t-1, dirty iff t even
            filters += 1 if t % 2 == 0 else 0
            pollutants += 1 if t % 2 == 1 else 0
        else:  # both -1: incoming edge is t, dirty iff t odd
            filters += 1 if t % 2 == 1 else 0
            pollutants += 1 if t % 2 == 0 else 0
    return sources, sinks, filters, pollutants


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
    kinds = {(1, -2): "sink", (-2, 1): "source", (-1, -2): "filter", (-2, -1): "pollutant"}
    census = {"sink": 0, "source": 0, "filter": 0, "pollutant": 0}
    for sp in junction_pairs(w):
        census[kinds[canonical_pair(sp)]] += 1
    if census["source"] != census["sink"] or census["filter"] != census["pollutant"]:
        raise ConstructionError("source/sink census mismatch on %s" % w)
    cycles = [(1, -2)] * census["sink"] + [(1, 2)] * census["pollutant"]
    cert = construct_from_tn(w, TnCertificate(2, tuple(cycles)))
    cert.construction = {
        "strategy": "f2-no-isolated",
        "sources": census["source"],
        "filters": census["filter"],
    }
    return cert


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
    comp_of_slot = {}
    for ci, comp in enumerate(S.boundary):
        for slot, _f in comp:
            comp_of_slot[slot] = ci
    syl, starts = syllable_starts(w)
    parts = syl.parts
    l = len(parts) // 2
    ps = [parts[2 * i][1] for i in range(l)]
    qs = [parts[2 * i + 1][1] for i in range(l)]
    sign = lambda x: 1 if x > 0 else -1
    groups = {"source": [], "sink": [], "filter": [], "pollutant": []}
    for i in range(l):
        r_i = (sign(ps[i]), sign(qs[i]), sign(ps[(i + 1) % l]))
        if r_i in ((-1, 1, 1), (-1, -1, 1)):
            kind = "source"
        elif r_i in ((1, 1, -1), (1, -1, -1)):
            kind = "sink"
        elif r_i in ((1, 1, 1), (-1, -1, -1)):
            kind = "filter"
        else:
            kind = "pollutant"
        b_slot = (0, starts[2 * i + 1])
        groups[kind].append(comp_of_slot[b_slot])
    if len(groups["source"]) != len(groups["sink"]) or len(groups["filter"]) != len(
        groups["pollutant"]
    ):
        raise ConstructionError("census mismatch on %s" % w)
    matches = list(zip(sorted(groups["source"]), sorted(groups["sink"]))) + list(
        zip(sorted(groups["filter"]), sorted(groups["pollutant"]))
    )
    glue = []
    for ca, cb in matches:
        seam = _reversing_gluing(S, ca, cb)
        if seam is None:
            raise ConstructionError("boundary circles %d and %d admit no reversing "
                                    "identification on %s" % (ca, cb, w))
        glue.extend(seam)
    out = certify(w, disks, pairs + glue)
    if not out.polygonal:
        raise ConstructionError("isolated-b gluing failed certification: %s" % out.detail)
    out.construction = {
        "strategy": "isolated-b",
        "sources": len(groups["source"]),
        "filters": len(groups["filter"]),
    }
    return out


# --- simple height-one words --------------------------------------------------


def _height_one_positions(shape: HeightOneShape, k: int):
    """Slot positions (canonical coordinates) of the two b-edges of every
    factor on a disk reading word^k; factor j is 0-based.

    alpha[j] is the b-edge entered before the q-run of factor j, beta[j]
    the one after it.
    """
    period = sum(abs(p) + abs(q) + 2 for p, q in zip(shape.p_exps, shape.q_exps))
    total = period * k
    alphas = []
    betas = []
    pos = -shape.layout_offset
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


def _perm_order(perm):
    n = len(perm)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        size = 0
        j = i
        while not seen[j]:
            seen[j] = True
            size += 1
            j = perm[j]
        order = lcm(order, size)
    return order


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
    circles pairwise per the matching, and certifies once.
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

    l = shape.l
    p_abs = [abs(x) for x in shape.p_exps]
    q_abs = [abs(x) for x in shape.q_exps]
    P, Q = shape.p, shape.q
    r = P * shape.p_prime - Q * shape.q_prime

    # weight-one p-factors (indices 0-based over one w^P block of factors)
    ones = [j for j in range(P * l) if p_abs[j % l] == 1]
    assert len(ones) == P * shape.p_prime
    A = ones[:r]
    # x_j: how many chain shifts target factor j's q-run; greedy on big runs
    x = [0] * l
    remaining = r
    for j in sorted(range(l), key=lambda j: (-Q * q_abs[j], j)):
        if q_abs[j] == 1:
            continue
        take = min(remaining, Q * q_abs[j])
        x[j] = take
        remaining -= take
    if remaining:
        raise ConstructionError("cannot distribute %d chain shifts" % remaining)
    # copies of the disk blocks: only the targeted q-runs enter the permutation
    c = lcm(*(q_abs[j] for j in range(l) if x[j]))
    targets = [j for j in range(l) for _ in range(x[j])]
    sigma = dict(zip(A, targets))

    def g_of(k0, i):
        qj = q_abs[sigma[k0]]
        return i + 1 if (i + 1) % qj != 0 else i + 1 - qj

    perm = list(range(c))
    for k0 in sorted(A):
        perm = [g_of(k0, perm[i]) for i in range(c)]
    d = _perm_order(perm)

    disks = [DiskSpec(w, d * P) for _ in range(c)] + [
        DiskSpec(w, d * Q) for _ in range(c)
    ]
    alphas_p, betas_p = _height_one_positions(shape, d * P)
    nf_p = len(alphas_p)
    pairs = []
    for i in range(c):
        for j in range(nf_p):
            jm = j % (P * l)
            if jm in sigma:
                target = g_of(jm, i)
            else:
                target = i
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
            glue.extend(
                _same_sign_gluing(ca, up.a.composition, cb, up.b.composition, up.offset)
            )
    out = certify(w, disks, pairs + glue)
    if not out.polygonal:
        raise ConstructionError("height-one gluing failed certification: %s" % out.detail)
    out.u_certificate = u_cert
    out.construction = {
        "strategy": "height-one",
        "c": c,
        "d": d,
        "doubled": doubled,
        "shift_factors": sorted(A),
        "shift_targets": x,
    }
    if swapped:
        out.construction["swapped"] = True
    return out


def _align_rotation(flags, composition):
    """Rotation rho with flags[(s + rho) % m] true exactly on the partial sums."""
    m = len(flags)
    sums = {s % m for s in partial_sums(composition)}
    for rho_ in range(m):
        if all(flags[(s + rho_) % m] == (s in sums) for s in range(m)):
            return rho_
    raise ConstructionError("boundary circle does not match its composition")


def _same_sign_gluing(ca, comp_a, cb, comp_b, offset):
    """Identify two same-sign circles with the witness offset: after
    aligning both to their compositions, vertex s meets vertex s+offset."""
    m = len(ca.slots)
    ra = _align_rotation(ca.flags, comp_a)
    rb = _align_rotation(cb.flags, comp_b)
    out = []
    for s in range(m):
        out.append(
            (ca.slots[(s + ra) % m], cb.slots[(s + offset + rb) % m])
        )
    return out


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
    for inv in (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})):
        v = transform(w, Relabeling(invert=inv)) if inv else w
        if v.is_positive():
            break
    else:
        return None
    n = len(v.letters)
    for gen in (1, 2):
        followers = {v.letters[(i + 1) % n] for i in range(n) if v.letters[i] == gen}
        if len(followers) == 1:
            return NonPolygonalityEvidence(w, gen, "follower", followers.pop(), inv)
        preds = {v.letters[(i - 1) % n] for i in range(n) if v.letters[i] == gen}
        if len(preds) == 1:
            return NonPolygonalityEvidence(w, gen, "predecessor", preds.pop(), inv)
    return None
