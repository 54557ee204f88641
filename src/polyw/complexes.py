"""Polygonal disks, side-pairings, quotient surfaces, and the certifier.

A disk system is one cyclic word w and its positive powers: disk i reads
w^powers[i] round its boundary, the letters ``w.letters * powers[i]``,
and the complex, the certifier and the certificate all hold it as (w,
powers).  A side-pairing identifies boundary 1-cells in pairs, matching
the labeled arrows head to head and tail to tail.  The quotient is a
closed surface when the pairing is total.  A word is certified polygonal
by a closed quotient that stays an immersion over the rose (per vertex
and generator, at most one incoming and one outgoing edge) and has Euler
characteristic below the disk count on every connected component.
``certify`` is the only authority on that verdict; constructors and the
search only propose.

Slot j of disk i, the 1-cell reading its j-th boundary letter, has the
global index s = base[i] + j, base[i] being the total size of the disks
before i.  ``SurfaceComplex`` keeps flat lists indexed by s: ``letter``,
the ``nxt`` and ``prv`` slots around the disk, ``disk``, ``partner`` (-1
when free) and ``vertex``, the id of the slot's first corner.  Vertices
are the corner classes under the pairing, numbered in order of their
least slot.  The lists of slot indices and vertex ids (``nxt``, ``prv``,
``partner``, ``vertex`` and the union-find parents of the build) hold
one shared int object per index, so a slot costs one pointer per list.
``circles`` keeps each boundary circle as its slot list in walk order
and a ``bytearray`` of walk directions, and ``name(s)`` is slot s as
(disk, slot).  Each report (edges, boundary circles, immersion, chi per
component, the boundary invariant) is one pass over these lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .invariants import LambdaMultiset, LambdaTerm, TnCertificate, UCertificate, UPair
from .words import (
    MAX_WORD_LENGTH,
    CyclicWord,
    Relabeling,
    cyclic_word,
    inverse_letters,
    least_rotation,
    primitive_root,
    transform,
    word_key,
)

Slot = Tuple[int, int]


class PairingError(ValueError):
    """A slot pair that cannot be identified (label mismatch etc.)."""


class LambdaError(ValueError):
    """The complex does not arise from a consistent b-side-pairing."""


class SidePairing:
    """A fixed-point-free partial involution on boundary slots."""

    def __init__(self, pairs):
        seen = set()
        normalized = []
        for a, b in pairs:
            a, b = tuple(a), tuple(b)
            if a == b:
                raise PairingError("slot %r paired with itself" % (a,))
            if a in seen or b in seen:
                raise PairingError("slot reused in pairing")
            seen.update((a, b))
            normalized.append((min(a, b), max(a, b)))
        self.pairs = tuple(sorted(normalized))

    def __eq__(self, other):
        return isinstance(other, SidePairing) and self.pairs == other.pairs


@dataclass(frozen=True)
class Edge:
    label: int
    tail: int
    head: int
    slots: Tuple[Slot, ...]  # one slot if on the boundary, two if interior


def _find(parent, x):
    """Root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


class SurfaceComplex:
    """Quotient CW structure of disks reading w^k, k in ``powers``, under a
    (partial) side-pairing."""

    def __init__(self, w: CyclicWord, powers: Sequence[int], pairing: SidePairing):
        self.word, self.powers, self.pairing = w, tuple(powers), pairing
        if any(k < 1 for k in self.powers):
            raise ValueError("disk power must be positive")
        sizes = [len(w) * k for k in self.powers]
        self.base, letter, disk = [], [], []
        for i, k in enumerate(self.powers):
            self.base.append(len(letter))
            letter.extend(w.letters * k)
            disk.extend([i] * sizes[i])
        n = len(letter)
        ids = list(range(n))  # the one int object per slot index that every list shares
        nxt, prv = ids[1:] + ids[:1], ids[-1:] + ids[:-1]
        for b, size in zip(self.base, sizes):
            nxt[b + size - 1], prv[b] = ids[b], ids[b + size - 1]
        self.letter, self.disk, self.nxt, self.prv = letter, disk, nxt, prv
        self.partner = partner = [-1] * n
        parent = ids[:]  # every parent is a smaller slot of the class
        for a, b in pairing.pairs:
            for i, j in (a, b):
                if not (0 <= i < len(sizes)) or not (0 <= j < sizes[i]):
                    raise PairingError("slot %r out of range" % ((i, j),))
            s, t = ids[self.base[a[0]] + a[1]], ids[self.base[b[0]] + b[1]]
            if abs(letter[s]) != abs(letter[t]):
                raise PairingError("label mismatch: %r reads %s, %r reads %s"
                                   % (a, letter[s], b, letter[t]))
            partner[s], partner[t] = t, s
            # the arrows meet head to head and tail to tail
            u, v = (t, nxt[t]) if (letter[s] > 0) == (letter[t] > 0) else (nxt[t], t)
            for x, y in ((s, u), (nxt[s], v)):
                x, y = _find(parent, x), _find(parent, y)
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y
        self.vertex = vertex = [0] * n
        count = 0
        for s, r in enumerate(parent):  # a parent r < s is numbered already
            vertex[s] = vertex[r] if r < s else ids[count]
            count += r == s
        self.n_vertices = count
        self.closed = -1 not in partner
        self.circles = [] if self.closed else self._walk_boundary(ids)

    def _walk_boundary(self, ids):
        """Boundary circles, each a pair (slots, forward): the list of its
        slots in walk order and a ``bytearray`` whose entry k is 1 when the
        walk runs along slot k's disk.  From a free slot the walk turns
        round its far corner, and on into the partner's neighbour while the
        slot it reaches is paired."""
        letter, nxt, prv, partner = self.letter, self.nxt, self.prv, self.partner
        seen = bytearray(len(letter))
        circles = []
        for start in range(len(letter)):
            if partner[start] >= 0 or seen[start]:
                continue
            slots, directions = [], bytearray()
            s, forward = ids[start], True
            while True:
                slots.append(s)
                directions.append(forward)
                seen[s] = True
                s = nxt[s] if forward else prv[s]
                while partner[s] >= 0:
                    t = partner[s]
                    if (letter[s] > 0) == (letter[t] > 0):
                        forward = not forward
                    s = nxt[t] if forward else prv[t]
                if s == start:
                    assert forward, "boundary walk closed inconsistently"
                    break
            circles.append((slots, directions))
        return circles

    # -- reports -------------------------------------------------------------

    def slot_letter(self, slot):
        return self.letter[self.base[slot[0]] + slot[1]]

    def vertex_at(self, slot):
        """Vertex id of the first corner of ``(disk, slot)``."""
        return self.vertex[self.base[slot[0]] + slot[1]]

    def name(self, s):
        """(disk, slot) of slot index s."""
        i = self.disk[s]
        return (i, s - self.base[i])

    def _arrow(self, s):
        """(tail vertex, head vertex) of the labeled arrow on slot s."""
        u, v = self.vertex[s], self.vertex[self.nxt[s]]
        return (u, v) if self.letter[s] > 0 else (v, u)

    @property
    def n_circles(self):
        return len(self.circles)

    @cached_property
    def boundary(self):
        """Boundary circles, each a tuple of ((disk, slot), forward)."""
        return [tuple((self.name(s), bool(f)) for s, f in zip(slots, forward))
                for slots, forward in self.circles]

    @cached_property
    def lambda_circles(self):
        """The one walk :func:`boundary_lambda` and :func:`lambda_components` read."""
        return _lambda_circles(self)

    @cached_property
    def edges(self) -> List[Edge]:
        """One edge per free slot and per pair, in order of their least slot."""
        out = []
        for s, t in enumerate(self.partner):
            if 0 <= t < s:
                continue
            slots = (self.name(s),) if t < 0 else (self.name(s), self.name(t))
            out.append(Edge(abs(self.letter[s]), *self._arrow(s), slots))
        return out

    @property
    def m(self):
        return len(self.powers)

    @property
    def n_edges(self):
        return len(self.letter) - len(self.pairing.pairs)

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.m

    def connected_components(self):
        """Disk indices joined through pairs (so through shared vertices),
        by least disk."""
        neighbours = [[] for _ in self.powers]
        for (i, _j), (k, _l) in self.pairing.pairs:
            neighbours[i].append(k)
            neighbours[k].append(i)
        seen = [False] * self.m
        out = []
        for start in range(self.m):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for i in comp:  # grows while it is read
                for k in neighbours[i]:
                    if not seen[k]:
                        seen[k] = True
                        comp.append(k)
            out.append(tuple(sorted(comp)))
        return out

    def component_euler_data(self):
        """Per component: (disks, vertex count, edge count, chi)."""
        comps = self.connected_components()
        of_disk = [0] * self.m
        for k, comp in enumerate(comps):
            for i in comp:
                of_disk[i] = k
        v_counts = [0] * len(comps)
        e_counts = [0] * len(comps)
        fresh = 0  # a vertex is counted at its least slot, where its id first shows
        for s, t in enumerate(self.partner):
            k = of_disk[self.disk[s]]
            if self.vertex[s] == fresh:
                fresh += 1
                v_counts[k] += 1
            if t < 0 or t > s:
                e_counts[k] += 1
        return [
            (comp, v_counts[k], e_counts[k], v_counts[k] - e_counts[k] + len(comp))
            for k, comp in enumerate(comps)
        ]

    def to_dot(self):
        lines = ["digraph surface {"]
        for v in range(self.n_vertices):
            lines.append('  v%d [shape=point, label=""];' % v)
        for e in self.edges:
            style = "solid" if len(e.slots) == 2 else "dashed"
            lines.append(
                '  v%d -> v%d [label="a%d", style=%s];' % (e.tail, e.head, e.label, style)
            )
        lines.append("}")
        return "\n".join(lines)


def build_complex(w, powers, pairing):
    """Quotient the disks reading w^k, k in ``powers``, by the pairing;
    rejects incompatible pairs."""
    if isinstance(pairing, (list, tuple)):
        pairing = SidePairing(pairing)
    return SurfaceComplex(w, powers, pairing)


def check_immersion(S: SurfaceComplex):
    """Per vertex and generator: at most one incoming and one outgoing edge.

    Returns (ok, violations), each violation (vertex, generator, "out" or
    "in", count), outgoing ones first, each kind by vertex and generator.
    """
    rank = max(map(abs, S.letter), default=1)
    outs = [0] * (S.n_vertices * rank)
    ins = [0] * (S.n_vertices * rank)
    for s, (x, t) in enumerate(zip(S.letter, S.partner)):
        if t < 0 or t > s:
            tail, head = S._arrow(s)
            outs[tail * rank + abs(x) - 1] += 1
            ins[head * rank + abs(x) - 1] += 1
    violations = [
        (k // rank, k % rank + 1, kind, c)
        for kind, counts in (("out", outs), ("in", ins))
        for k, c in enumerate(counts)
        if c > 1
    ]
    return (not violations, violations)


def genus_report(S):
    """(orientable?, genus) of a closed connected surface.

    Orientability is decided by coloring the faces +-1 in one walk over a
    signed disk adjacency: flipping face orientations must make the two
    traversals of each edge run oppositely.  A disk the walk does not
    reach makes the surface disconnected.
    """
    if not S.closed:
        raise ValueError("genus is reported for closed surfaces only")
    adjacent = [[] for _ in S.powers]
    for a, b in S.pairing.pairs:
        # the required product of the two face colors
        want = -1 if (S.slot_letter(a) > 0) == (S.slot_letter(b) > 0) else 1
        adjacent[a[0]].append((b[0], want))
        adjacent[b[0]].append((a[0], want))
    colors = {0: 1} if S.powers else {}
    stack = list(colors)
    orientable = True
    while stack:
        i = stack.pop()
        for k, want in adjacent[i]:
            if k not in colors:
                colors[k] = want * colors[i]
                stack.append(k)
            elif colors[i] * colors[k] != want:
                orientable = False
    if len(colors) < S.m:
        raise ValueError("genus is reported for connected surfaces only")
    chi = S.euler_characteristic()
    if orientable:
        if chi % 2:
            raise AssertionError("odd Euler characteristic on an orientable surface")
        return True, (2 - chi) // 2
    return False, 2 - chi


def _term_json(t):
    return {"sign": t.sign, "composition": list(t.composition)}


def _term(data):
    return LambdaTerm(data["sign"], tuple(data["composition"]))


# A certificate's JSON layout after its word, rank, disks and pairing, in
# output order: the verdict's (key, field) entries, then the entries that
# are written only when set.
_VERDICT_KEYS = (("chi", "chi"), ("m", "m"), ("vertices", "vertices"),
                 ("immersion", "immersion_ok"), ("closed", "closed"),
                 ("polygonal", "polygonal"), ("components", "components"))
_OPTIONAL_KEYS = ("declarative", "detail", "construction")


@dataclass
class PolygonalityCertificate:
    """A machine-checkable polygonality verdict with reconstruction data."""

    word: CyclicWord
    powers: Tuple[int, ...]
    pairing: Optional[SidePairing]
    polygonal: bool
    chi: Optional[int] = None
    m: Optional[int] = None
    vertices: Optional[int] = None
    immersion_ok: Optional[bool] = None
    closed: Optional[bool] = None
    components: Optional[int] = None
    declarative: Optional[dict] = None
    detail: Optional[str] = None
    construction: Optional[dict] = None
    tn_certificate: Optional[TnCertificate] = None
    u_certificate: Optional[UCertificate] = None

    def complex(self):
        if self.declarative is not None or self.pairing is None or not self.powers:
            raise ValueError("the certificate carries no surface")
        return build_complex(self.word, self.powers, self.pairing)

    def verify(self):
        """Re-run the certifier on the stored data; True when it reproduces."""
        if self.declarative is not None:
            _, k = primitive_root(self.word)
            return self.polygonal and k > 1
        again = certify(self.word, self.powers, self.pairing)
        # every verdict entry it states: a loaded one may leave out "components"
        return all(getattr(again, name) == getattr(self, name) for key, name in _VERDICT_KEYS
                   if key != "components" or self.components is not None)

    def to_json_dict(self):
        data = {
            "word": str(self.word),
            "rank": self.word.rank,
            "disks": [{"power": k} for k in self.powers],
            "pairing": [[list(a), list(b)] for a, b in self.pairing.pairs]
            if self.pairing is not None
            else None,
            "verdict": {key: getattr(self, name) for key, name in _VERDICT_KEYS},
        }
        data.update((key, getattr(self, key)) for key in _OPTIONAL_KEYS
                    if getattr(self, key) is not None)
        tn, u = self.tn_certificate, self.u_certificate
        if tn is not None:
            data["tn_certificate"] = {"rank": tn.rank, "cycles": [list(c) for c in tn.cycles]}
        if u is not None:
            data["u_certificate"] = [{"a": _term_json(p.a), "b": _term_json(p.b),
                                      "offset": p.offset} for p in u.pairs]
        return data

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(data):
        word = cyclic_word(data["word"], data["rank"])
        powers = tuple(d["power"] for d in data["disks"])
        pairs = [(tuple(a), tuple(b)) for a, b in data.get("pairing") or ()]
        numbers = powers + tuple(x for pair in pairs for slot in pair for x in slot)
        if any(type(x) is not int for x in numbers):
            raise ValueError("disk powers and slot indices must be integers")
        if len(word) * sum(powers) > MAX_WORD_LENGTH:
            raise ValueError("the disks hold more than %d slots" % MAX_WORD_LENGTH)
        pairing = SidePairing(pairs) if data.get("pairing") is not None else None
        verdict = data["verdict"]
        tn = data.get("tn_certificate")
        u = data.get("u_certificate")
        return PolygonalityCertificate(
            word=word,
            powers=powers,
            pairing=pairing,
            # every verdict key is required but "components"
            **{name: verdict[key] for key, name in _VERDICT_KEYS
               if key != "components" or key in verdict},
            **{key: data.get(key) for key in _OPTIONAL_KEYS},
            tn_certificate=None if tn is None else TnCertificate(tn["rank"], tn["cycles"]),
            u_certificate=None if u is None else UCertificate(tuple(
                UPair(_term(p["a"]), _term(p["b"]), p["offset"]) for p in u)),
        )


def certify(w: CyclicWord, powers, pairing) -> PolygonalityCertificate:
    """The authoritative polygonality check of a concrete disk system: the
    disks reading w^k, k in ``powers``, under the pairing.

    True iff the pairing is total, the quotient is an immersion over the
    rose, and every connected component has chi strictly below its own
    disk count.  Failures are verdicts, not errors.
    """
    powers = tuple(powers)
    if isinstance(pairing, (list, tuple)):
        pairing = SidePairing(pairing)
    try:
        S = build_complex(w, powers, pairing)
    except PairingError as err:
        return PolygonalityCertificate(
            word=w,
            powers=powers,
            pairing=pairing,
            polygonal=False,
            detail="incompatible pair: %s" % err,
        )
    immersion_ok, violations = check_immersion(S)
    comp_data = S.component_euler_data()
    chi_ok = bool(comp_data) and all(chi < len(comp) for comp, _v, _e, chi in comp_data)
    verdict = S.closed and immersion_ok and chi_ok
    detail = None
    if not immersion_ok:
        detail = "immersion violations: %s" % (violations[:3],)
    elif not S.closed:
        detail = "%d boundary components remain" % S.n_circles
    elif not chi_ok:
        detail = "a component has chi >= its disk count" if comp_data else "no disks"
    return PolygonalityCertificate(
        word=w,
        powers=powers,
        pairing=pairing,
        polygonal=verdict,
        chi=S.euler_characteristic(),
        m=S.m,
        vertices=S.n_vertices,
        immersion_ok=immersion_ok,
        closed=S.closed,
        components=len(comp_data),
        detail=detail,
    )


def proper_power_certificate(w: CyclicWord) -> PolygonalityCertificate:
    """Declarative certificate for proper powers (no surface is built)."""
    root, k = primitive_root(w)
    if k < 2:
        raise ValueError("%s is not a proper power" % w)
    return PolygonalityCertificate(
        word=w,
        powers=(),
        pairing=None,
        polygonal=True,
        declarative={"reason": "proper power", "root": str(root), "power": k},
    )


def _lambda_runs(flags):
    """A circle's b-incident a-arrow indices and the a-run length after each."""
    marked = [k for k, f in enumerate(flags) if f]
    ends = marked[1:] + [marked[0] + len(flags)]
    return marked, tuple(b - a for a, b in zip(marked, ends))


@dataclass(frozen=True)
class LambdaComponent:
    """One boundary circle of a consistent b-side-pairing quotient.

    Slots, vertices and b-incidence flags are listed in a-arrow order:
    vertex k is the arrow tail of slot k.  The circle reads its term's
    canonical composition from a-arrow index ``start`` on.
    """

    sign: int
    slots: Tuple[Slot, ...]
    vertices: Tuple[int, ...]
    flags: Tuple[bool, ...]
    term: LambdaTerm
    start: int


def _lambda_circles(S: SurfaceComplex):
    """(sign, slots, vertices, flags, term, start) per boundary circle,
    slots as global indices; see :func:`lambda_components`.  Circles
    repeat a few (sign, flags) shapes many times: each shape's term and
    start are built once."""
    letter, nxt, vertex = S.letter, S.nxt, S.vertex
    b_out = [0] * S.n_vertices
    b_in = [0] * S.n_vertices
    for s, t in enumerate(S.partner):
        label = abs(letter[s])
        if t > s:
            if label != 2:
                raise LambdaError("interior edge with label a%d; expected only a2 paired"
                                  % label)
            tail, head = S._arrow(s)
            b_out[tail] += 1
            b_in[head] += 1
        elif t < 0 and label != 1:
            raise LambdaError("boundary edge with label a%d; expected only a1 free" % label)
    if S.closed:
        raise LambdaError("closed surface has no boundary invariant")
    shapes, out = {}, []
    for slots, forward in S.circles:
        # orient the circle along the a-arrows
        dirs = {f == (letter[s] > 0) for s, f in zip(slots, forward)}
        if len(dirs) != 1:
            raise LambdaError("boundary circle with inconsistently oriented a-edges")
        if not dirs.pop():
            slots = slots[::-1]
        verts = [vertex[s] if letter[s] > 0 else vertex[nxt[s]] for s in slots]
        flags, sign = [], 0
        for v in verts:
            o, i_ = b_out[v], b_in[v]
            if o and i_:
                raise LambdaError("vertex %d meets both incoming and outgoing b-edges" % v)
            flags.append(bool(o or i_))
            if flags[-1]:
                if sign and sign != (1 if o else -1):
                    raise LambdaError("mixed b-edge directions on one boundary circle")
                sign = 1 if o else -1
        if not any(flags):
            raise LambdaError("boundary circle meets no b-edges")
        flags = tuple(flags)
        shape = shapes.get((sign, flags))
        if shape is None:
            marked, runs = _lambda_runs(flags)
            shape = shapes[sign, flags] = LambdaTerm(sign, runs), marked[least_rotation(runs)]
        out.append((sign, slots, verts, flags, *shape))
    return out


def lambda_components(S: SurfaceComplex):
    """Per-circle boundary data of a consistent b-side-pairing quotient.

    Every interior edge must carry the b label and every boundary slot the
    a label; on each circle the incident b-edges must point uniformly in
    or uniformly out, and the a-arrows must orient the circle.  A circle
    starts at the b-incident arrow where :func:`least_rotation` starts
    its a-run lengths.
    """
    return [LambdaComponent(sign, tuple(map(S.name, slots)), tuple(verts), flags, term, start)
            for sign, slots, verts, flags, term, start in S.lambda_circles]


def boundary_lambda(S: SurfaceComplex) -> LambdaMultiset:
    """Boundary invariant of a consistent b-side-pairing quotient.

    Per boundary circle: sign + when the incident b-edges are all
    outgoing, - when all incoming; the composition lists the a-run lengths
    between b-incident vertices, up to rotation.
    """
    return LambdaMultiset(tuple(term for *_circle, term, _start in S.lambda_circles))


def transform_certificate(cert: PolygonalityCertificate, rel: Relabeling):
    """Transport a certificate along a relabeling and re-certify.

    The disks' boundary sequences are mapped letterwise (reversed for a
    word inversion) and the slot indices follow the rotation that brings
    the image back to canonical coordinates.  The image of a disk reading
    w^k is a rotation of w'^k, w' the transformed word in its canonical
    rotation, which is the least one; so the offset is the least start of
    the image's least rotation, ``least_rotation(word_key(mapped))`` by
    Booth's O(n) algorithm.
    """
    new_word = transform(cert.word, rel)
    if cert.declarative is not None:
        return proper_power_certificate(new_word)
    shifts = []  # per disk: (size, offset of the image in canonical coordinates)
    for power in cert.powers:
        mapped = tuple(map(rel.apply_letter, cert.word.letters * power))
        if rel.invert_word:
            mapped = inverse_letters(mapped)
        shifts.append((len(mapped), least_rotation(word_key(mapped))))

    def image(slot):
        i, j = slot
        size, offset = shifts[i]
        return (i, ((size - 1 - j if rel.invert_word else j) - offset) % size)

    new_pairs = [(image(a), image(b)) for a, b in cert.pairing.pairs]
    return certify(new_word, cert.powers, new_pairs)
