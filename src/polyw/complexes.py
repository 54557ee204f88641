"""Polygonal disks, side-pairings, quotient surfaces, and the certifier.

A disk's boundary reads a nonzero power of a cyclic word; a side-pairing
identifies boundary 1-cells in pairs, matching the labeled arrows head to
head and tail to tail.  The quotient is a closed surface when the pairing
is total.  A word is certified polygonal by a closed quotient that stays
an immersion over the rose (per vertex and generator, at most one
incoming and one outgoing edge) and has Euler characteristic below the
disk count on every connected component.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .invariants import LambdaMultiset, LambdaTerm, TnCertificate, UCertificate
from .words import (
    CyclicWord,
    Relabeling,
    cyclic_word,
    inverse_letters,
    letters_to_str,
    primitive_root,
    rotation_offset,
)

Slot = Tuple[int, int]


class PairingError(ValueError):
    """A slot pair that cannot be identified (label mismatch etc.)."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class LambdaError(ValueError):
    """The complex does not arise from a consistent b-side-pairing."""


@dataclass(frozen=True)
class DiskSpec:
    """A polygonal disk whose boundary reads word^power.

    A negative power reads the |power|-th power of the inverse word, i.e.
    the boundary traversed with reversed orientation.
    """

    word: CyclicWord
    power: int

    def __post_init__(self):
        if self.power == 0:
            raise ValueError("disk power must be nonzero")

    @property
    def size(self):
        return len(self.word) * abs(self.power)

    def boundary_letters(self):
        base = self.word.letters
        if self.power < 0:
            base = inverse_letters(base)
        return base * abs(self.power)


class SidePairing:
    """A fixed-point-free partial involution on boundary slots."""

    def __init__(self, pairs):
        seen = set()
        normalized = []
        for a, b in pairs:
            a, b = tuple(a), tuple(b)
            if a == b:
                raise PairingError("slot %r paired with itself" % (a,), (a, b))
            if a in seen or b in seen:
                raise PairingError("slot reused in pairing", (a, b))
            seen.update((a, b))
            normalized.append((min(a, b), max(a, b)))
        self.pairs = tuple(sorted(normalized))
        self.partner = {}
        for a, b in self.pairs:
            self.partner[a] = b
            self.partner[b] = a

    def __len__(self):
        return len(self.pairs)

    def __eq__(self, other):
        return isinstance(other, SidePairing) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)


@dataclass(frozen=True)
class Edge:
    label: int
    tail: int
    head: int
    slots: Tuple[Slot, ...]  # one slot if on the boundary, two if interior


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class SurfaceComplex:
    """Quotient CW structure of disks under a (partial) side-pairing."""

    def __init__(self, disks: Sequence[DiskSpec], pairing: SidePairing):
        self.disks = tuple(disks)
        self.pairing = pairing
        self._letters = [d.boundary_letters() for d in self.disks]
        self._sizes = [d.size for d in self.disks]
        self._bases = []
        total = 0
        for n in self._sizes:
            self._bases.append(total)
            total += n
        self._total_slots = total
        self._validate_pairs()
        self._build_vertices()
        self._build_edges()
        self._build_boundary()

    # -- construction -------------------------------------------------------

    def slot_letter(self, slot):
        i, j = slot
        return self._letters[i][j]

    def _validate_pairs(self):
        for a, b in self.pairing.pairs:
            for i, j in (a, b):
                if not (0 <= i < len(self.disks)) or not (0 <= j < self._sizes[i]):
                    raise PairingError("slot %r out of range" % ((i, j),), (a, b))
            if abs(self.slot_letter(a)) != abs(self.slot_letter(b)):
                raise PairingError(
                    "label mismatch: %r reads %s, %r reads %s"
                    % (a, self.slot_letter(a), b, self.slot_letter(b)),
                    (a, b),
                )

    def _pv(self, i, v):
        return self._bases[i] + (v % self._sizes[i])

    def _build_vertices(self):
        uf = _UnionFind(self._total_slots)
        for a, b in self.pairing.pairs:
            same = (self.slot_letter(a) > 0) == (self.slot_letter(b) > 0)
            (ia, ja), (ib, jb) = a, b
            if same:
                uf.union(self._pv(ia, ja), self._pv(ib, jb))
                uf.union(self._pv(ia, ja + 1), self._pv(ib, jb + 1))
            else:
                uf.union(self._pv(ia, ja), self._pv(ib, jb + 1))
                uf.union(self._pv(ia, ja + 1), self._pv(ib, jb))
        roots = sorted({uf.find(x) for x in range(self._total_slots)})
        index = {r: k for k, r in enumerate(roots)}
        self.vertex_of = {}
        for i in range(len(self.disks)):
            for v in range(self._sizes[i]):
                self.vertex_of[(i, v)] = index[uf.find(self._pv(i, v))]
        self.n_vertices = len(roots)

    def _slot_ends(self, slot):
        """(tail vertex, head vertex) of the labeled arrow on this slot."""
        i, j = slot
        start = self.vertex_of[(i, j)]
        end = self.vertex_of[(i, (j + 1) % self._sizes[i])]
        return (start, end) if self.slot_letter(slot) > 0 else (end, start)

    def _build_edges(self):
        self.edges: List[Edge] = []
        done = set()
        for i in range(len(self.disks)):
            for j in range(self._sizes[i]):
                slot = (i, j)
                if slot in done:
                    continue
                partner = self.pairing.partner.get(slot)
                tail, head = self._slot_ends(slot)
                if partner is None:
                    slots = (slot,)
                else:
                    slots = (slot, partner)
                    done.add(partner)
                self.edges.append(Edge(abs(self.slot_letter(slot)), tail, head, slots))

    # boundary machinery: an "end" is (slot, side) with side 0 at the start
    # vertex of the slot in disk traversal order, 1 at its far vertex.

    def _corner_cross(self, end):
        (i, j), side = end
        n = self._sizes[i]
        if side == 1:
            return ((i, (j + 1) % n), 0)
        return ((i, (j - 1) % n), 1)

    def _pair_jump(self, end):
        slot, side = end
        partner = self.pairing.partner[slot]
        same = (self.slot_letter(slot) > 0) == (self.slot_letter(partner) > 0)
        return (partner, side if same else 1 - side)

    def _build_boundary(self):
        unpaired = [
            (i, j)
            for i in range(len(self.disks))
            for j in range(self._sizes[i])
            if (i, j) not in self.pairing.partner
        ]
        self.closed = not unpaired
        self.boundary = []
        visited = set()
        for start in unpaired:
            if start in visited:
                continue
            component = []
            slot, entry = start, 0
            while True:
                component.append((slot, entry == 0))
                visited.add(slot)
                end = (slot, 1 - entry)
                nxt = self._corner_cross(end)
                while nxt[0] in self.pairing.partner:
                    nxt = self._corner_cross(self._pair_jump(nxt))
                slot, entry = nxt
                if slot == start:
                    assert entry == 0, "boundary walk closed inconsistently"
                    break
            self.boundary.append(tuple(component))

    # -- reports -------------------------------------------------------------

    @property
    def m(self):
        return len(self.disks)

    @property
    def n_edges(self):
        return len(self.edges)

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.m

    def connected_components(self):
        """Groups of disk indices connected through shared vertices."""
        uf = _UnionFind(len(self.disks) + self.n_vertices)
        for (i, _v), vid in self.vertex_of.items():
            uf.union(i, len(self.disks) + vid)
        groups: Dict[int, List[int]] = {}
        for i in range(len(self.disks)):
            groups.setdefault(uf.find(i), []).append(i)
        return [tuple(g) for g in groups.values()]

    def component_euler_data(self):
        """Per component: (disks, vertex count, edge count, chi)."""
        comps = self.connected_components()
        of_disk = {}
        for k, comp in enumerate(comps):
            for i in comp:
                of_disk[i] = k
        v_sets = [set() for _ in comps]
        e_counts = [0] * len(comps)
        for (i, v), vid in self.vertex_of.items():
            v_sets[of_disk[i]].add(vid)
        for edge in self.edges:
            e_counts[of_disk[edge.slots[0][0]]] += 1
        out = []
        for k, comp in enumerate(comps):
            chi = len(v_sets[k]) - e_counts[k] + len(comp)
            out.append((comp, len(v_sets[k]), e_counts[k], chi))
        return out

    def is_connected(self):
        return len(self.connected_components()) == 1

    def to_dot(self, name="surface"):
        lines = ["digraph %s {" % name]
        for v in range(self.n_vertices):
            lines.append('  v%d [shape=point, label=""];' % v)
        for e in self.edges:
            style = "solid" if len(e.slots) == 2 else "dashed"
            lines.append(
                '  v%d -> v%d [label="a%d", style=%s];' % (e.tail, e.head, e.label, style)
            )
        lines.append("}")
        return "\n".join(lines)


def build_complex(disks, pairing):
    """Quotient the disks by the pairing; rejects incompatible pairs."""
    if isinstance(pairing, (list, tuple)):
        pairing = SidePairing(pairing)
    return SurfaceComplex(disks, pairing)


def check_immersion(S: SurfaceComplex):
    """Per vertex and generator: at most one incoming and one outgoing edge."""
    from collections import Counter

    ins: Counter = Counter()
    outs: Counter = Counter()
    for e in S.edges:
        outs[(e.tail, e.label)] += 1
        ins[(e.head, e.label)] += 1
    violations = []
    for (v, g), c in sorted(outs.items()):
        if c > 1:
            violations.append((v, g, "out", c))
    for (v, g), c in sorted(ins.items()):
        if c > 1:
            violations.append((v, g, "in", c))
    return (not violations, violations)


def genus_report(S):
    """(orientable?, genus) of a closed connected surface.

    Orientability is decided by searching a consistent orientation of the
    faces: flipping face orientations must make the two traversals of each
    edge run oppositely.
    """
    if not S.closed:
        raise ValueError("genus is reported for closed surfaces only")
    if not S.is_connected():
        raise ValueError("genus is reported for connected surfaces only")
    colors = {}
    orientable = True
    for start in range(S.m):
        if start in colors:
            continue
        colors[start] = 1
        stack = [start]
        while stack and orientable:
            i = stack.pop()
            for a, b in S.pairing.pairs:
                if a[0] != i and b[0] != i:
                    continue
                sa = 1 if S.slot_letter(a) > 0 else -1
                sb = 1 if S.slot_letter(b) > 0 else -1
                want = -sa * sb  # required product of the two face colors
                ia, ib = a[0], b[0]
                if ib in colors and ia in colors:
                    if colors[ia] * colors[ib] != want:
                        orientable = False
                        break
                elif ia in colors:
                    colors[ib] = want * colors[ia]
                    stack.append(ib)
                elif ib in colors:
                    colors[ia] = want * colors[ib]
                    stack.append(ia)
    chi = S.euler_characteristic()
    if orientable:
        if chi % 2:
            raise AssertionError("odd Euler characteristic on an orientable surface")
        return True, (2 - chi) // 2
    return False, 2 - chi


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

    def disks(self):
        return tuple(DiskSpec(self.word, k) for k in self.powers)

    def complex(self):
        if self.declarative is not None or self.pairing is None:
            raise ValueError("declarative certificate carries no surface")
        return build_complex(self.disks(), self.pairing)

    def verify(self):
        """Re-run the certifier on the stored data; True when it reproduces."""
        if self.declarative is not None:
            _, k = primitive_root(self.word)
            return self.polygonal and k > 1
        again = certify(self.word, self.disks(), self.pairing)
        return (
            again.polygonal == self.polygonal
            and again.chi == self.chi
            and again.m == self.m
            and again.vertices == self.vertices
        )

    def to_json_dict(self):
        data = {
            "word": str(self.word),
            "rank": self.word.rank,
            "disks": [{"power": k} for k in self.powers],
            "pairing": [[list(a), list(b)] for a, b in self.pairing.pairs]
            if self.pairing is not None
            else None,
            "verdict": {
                "chi": self.chi,
                "m": self.m,
                "vertices": self.vertices,
                "immersion": self.immersion_ok,
                "closed": self.closed,
                "polygonal": self.polygonal,
                "components": self.components,
            },
        }
        if self.declarative is not None:
            data["declarative"] = self.declarative
        if self.detail is not None:
            data["detail"] = self.detail
        if self.construction is not None:
            data["construction"] = self.construction
        if self.tn_certificate is not None:
            data["tn_certificate"] = {
                "rank": self.tn_certificate.rank,
                "cycles": [list(c) for c in self.tn_certificate.cycles],
            }
        if self.u_certificate is not None:
            data["u_certificate"] = [
                {
                    "a": {"sign": p.a.sign, "composition": list(p.a.composition)},
                    "b": {"sign": p.b.sign, "composition": list(p.b.composition)},
                    "offset": p.offset,
                }
                for p in self.u_certificate.pairs
            ]
        return data

    def to_json(self, indent=2):
        return json.dumps(self.to_json_dict(), indent=indent)

    @staticmethod
    def from_json_dict(data):
        from .invariants import UPair

        word = cyclic_word(data["word"], data["rank"])
        powers = tuple(d["power"] for d in data["disks"])
        pairing = None
        if data.get("pairing") is not None:
            pairing = SidePairing(
                [(tuple(a), tuple(b)) for a, b in data["pairing"]]
            )
        verdict = data["verdict"]
        tn = None
        if "tn_certificate" in data:
            tn = TnCertificate(
                data["tn_certificate"]["rank"],
                tuple(tuple(c) for c in data["tn_certificate"]["cycles"]),
            )
        u = None
        if "u_certificate" in data:
            u = UCertificate(
                tuple(
                    UPair(
                        LambdaTerm(p["a"]["sign"], tuple(p["a"]["composition"])),
                        LambdaTerm(p["b"]["sign"], tuple(p["b"]["composition"])),
                        p["offset"],
                    )
                    for p in data["u_certificate"]
                )
            )
        return PolygonalityCertificate(
            word=word,
            powers=powers,
            pairing=pairing,
            polygonal=verdict["polygonal"],
            chi=verdict["chi"],
            m=verdict["m"],
            vertices=verdict["vertices"],
            immersion_ok=verdict["immersion"],
            closed=verdict["closed"],
            components=verdict.get("components"),
            declarative=data.get("declarative"),
            detail=data.get("detail"),
            construction=data.get("construction"),
            tn_certificate=tn,
            u_certificate=u,
        )


def certify(w: CyclicWord, disks, pairing) -> PolygonalityCertificate:
    """The authoritative polygonality check of a concrete disk system.

    True iff the pairing is total, the quotient is an immersion over the
    rose, and every connected component has chi strictly below its own
    disk count.  Failures are verdicts, not errors.
    """
    disks = tuple(disks)
    for d in disks:
        if d.word != w:
            raise ValueError("disk words must all equal the certified word")
    if isinstance(pairing, (list, tuple)):
        pairing = SidePairing(pairing)
    powers = tuple(d.power for d in disks)
    try:
        S = build_complex(disks, pairing)
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
    chi_ok = all(chi < len(comp) for comp, _v, _e, chi in comp_data)
    verdict = S.closed and immersion_ok and chi_ok
    detail = None
    if not immersion_ok:
        detail = "immersion violations: %s" % (violations[:3],)
    elif not S.closed:
        detail = "%d boundary components remain" % len(S.boundary)
    elif not chi_ok:
        detail = "a component has chi >= its disk count"
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


@dataclass(frozen=True)
class LambdaComponent:
    """One boundary circle of a consistent b-side-pairing quotient.

    Slots, vertices and b-incidence flags are listed in a-arrow order:
    vertex k is the arrow tail of slot k.
    """

    sign: int
    slots: Tuple[Slot, ...]
    vertices: Tuple[int, ...]
    flags: Tuple[bool, ...]

    @property
    def term(self):
        marked = [k for k, f in enumerate(self.flags) if f]
        lengths = []
        for a, b in zip(marked, marked[1:] + [marked[0] + len(self.flags)]):
            lengths.append(b - a)
        return LambdaTerm(self.sign, tuple(lengths))


def lambda_components(S: SurfaceComplex, a_gen=1, b_gen=2):
    """Per-circle boundary data of a consistent b-side-pairing quotient.

    Every interior edge must carry the b label and every boundary slot the
    a label; on each circle the incident b-edges must point uniformly in
    or uniformly out, and the a-arrows must orient the circle.
    """
    for e in S.edges:
        if len(e.slots) == 2 and e.label != b_gen:
            raise LambdaError("interior edge with label a%d; expected only a%d paired"
                              % (e.label, b_gen))
        if len(e.slots) == 1 and e.label != a_gen:
            raise LambdaError("boundary edge with label a%d; expected only a%d free"
                              % (e.label, a_gen))
    if S.closed:
        raise LambdaError("closed surface has no boundary invariant")
    b_out = {}
    b_in = {}
    for e in S.edges:
        if len(e.slots) == 2:
            b_out[e.tail] = b_out.get(e.tail, 0) + 1
            b_in[e.head] = b_in.get(e.head, 0) + 1
    out = []
    for component in S.boundary:
        # orient the circle along the a-arrows
        dirs = {
            forward == (S.slot_letter(slot) > 0) for slot, forward in component
        }
        if len(dirs) != 1:
            raise LambdaError("boundary circle with inconsistently oriented a-edges")
        steps = component if dirs.pop() else tuple(reversed(component))
        slots = []
        verts = []
        for slot, forward in steps:
            i, j = slot
            arrow_tail = j if (S.slot_letter(slot) > 0) else (j + 1) % S._sizes[i]
            slots.append(slot)
            verts.append(S.vertex_of[(i, arrow_tail)])
        flags = []
        sign = 0
        for v in verts:
            o, i_ = b_out.get(v, 0), b_in.get(v, 0)
            if o and i_:
                raise LambdaError("vertex %d meets both incoming and outgoing b-edges" % v)
            if o or i_:
                s = 1 if o else -1
                if sign and s != sign:
                    raise LambdaError("mixed b-edge directions on one boundary circle")
                sign = s
                flags.append(True)
            else:
                flags.append(False)
        if not any(flags):
            raise LambdaError("boundary circle meets no b-edges")
        out.append(LambdaComponent(sign, tuple(slots), tuple(verts), tuple(flags)))
    return out


def boundary_lambda(S: SurfaceComplex, a_gen=1, b_gen=2) -> LambdaMultiset:
    """Boundary invariant of a consistent b-side-pairing quotient.

    Per boundary circle: sign + when the incident b-edges are all
    outgoing, - when all incoming; the composition lists the a-run lengths
    between b-incident vertices, up to rotation.
    """
    return LambdaMultiset(
        tuple(c.term for c in lambda_components(S, a_gen, b_gen))
    )


def transform_certificate(cert: PolygonalityCertificate, rel: Relabeling):
    """Transport a certificate along a relabeling and re-certify.

    The disks' boundary sequences are mapped letterwise (reversed for a
    word inversion) and the slot indices follow the rotation that brings
    the image back to canonical coordinates.
    """
    from .words import transform as transform_word

    if cert.declarative is not None:
        new_word = transform_word(cert.word, rel)
        return proper_power_certificate(new_word)
    new_word = transform_word(cert.word, rel)
    slot_maps = []
    for power in cert.powers:
        old_boundary = DiskSpec(cert.word, power).boundary_letters()
        mapped = tuple(rel.apply_letter(x) for x in old_boundary)
        size = len(mapped)
        if rel.invert_word:
            mapped = tuple(-mapped[size - 1 - u] for u in range(size))
        target = DiskSpec(new_word, power).boundary_letters()
        offset = rotation_offset(mapped, target)
        if offset is None:
            raise ValueError("transformed boundary is not a rotation of the target")

        def make(offset=offset, size=size, invert=rel.invert_word):
            def slot_map(j):
                if invert:
                    j = size - 1 - j
                return (j - offset) % size

            return slot_map

        slot_maps.append(make())
    new_pairs = [
        ((a[0], slot_maps[a[0]](a[1])), (b[0], slot_maps[b[0]](b[1])))
        for a, b in cert.pairing.pairs
    ]
    return certify(new_word, [DiskSpec(new_word, k) for k in cert.powers], new_pairs)
