"""Bounded search for a certified surface by backtracking over
side-pairings.

The boundary letters of a configuration's disks, which read powers of w,
are its slots, disk after disk.  The least unpaired slot is paired first,
with partners of its generator in ascending order, so completions come in
lexicographic order of the partner array P (P[s] is the slot glued to s).

Each root of the rollback union-find of vertex classes holds two
generator bitmasks: the edges entering the class and those leaving it.
A gluing is legal iff every merge joins disjoint masks and the glued
edge's bit is new at its tail and head, i.e. no vertex gets two in-edges
or two out-edges of one generator.  A same-disk pair whose position
difference is a multiple of |w| is cut: it identifies vertices separated
by an interval reading a power of the boundary word, which forces the
half-rotation component with chi equal to its disk count.

The group G of a configuration permutes the disks of equal power
and rotates each disk's base point by multiples of |w|: as w is not a
proper power, every rotation and exchange of disks that keeps letters.
A branch is cut once some g in G makes g(P) lexicographically smaller
than P on the slots already determined, so each G-orbit is completed
once, at its least member (its lex-leader).  Immersion, the same-disk
cut and ``certify`` are G-invariant, so an orbit is certified whole or
not at all, and a search without the cut meets an orbit's members in
lexicographic order, lex-leader first: the first certificate and the
one-per-orbit list are the same with the cut as without it.

One lazy generator walks the configurations of ``power_configs`` in
order, in one process under one deadline, and yields each completion
that ``certify`` accepts; the certifier is the only check applied to a
completion.  ``decide_polygonal`` returns the first, so a certificate
found before the deadline is never lost.  ExhaustedWithin is a complete
negative for the bounds; it is evidence, not proof, of non-polygonality
in general.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .complexes import DiskSpec, PolygonalityCertificate, certify, proper_power_certificate
from .words import CyclicWord, is_proper_power


@dataclass(frozen=True)
class SearchBounds:
    max_disks: int = 2
    max_edges: int = 0  # 0: default to 2 * max_power * |w|
    max_power: int = 2
    time_budget: Optional[float] = None  # seconds

    def __post_init__(self):
        if self.max_disks < 1 or self.max_power < 1:
            raise ValueError("bounds must allow at least one disk and power")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("the time budget must be a number of seconds >= 0")

    def edge_limit(self, word_length):
        limit = self.max_edges or 2 * self.max_power * word_length
        if limit < word_length:
            raise ValueError("max_edges below |w|")
        return limit


@dataclass(frozen=True)
class Found:
    certificate: PolygonalityCertificate


@dataclass(frozen=True)
class ExhaustedWithin:
    bounds: SearchBounds
    nodes: int


@dataclass(frozen=True)
class TimedOut:
    bounds: SearchBounds
    nodes: int
    configs_done: int


class _Timeout(Exception):
    pass


def power_configs(w, bounds):
    """Disk power multisets within the bounds, in canonical order."""
    return list(_power_configs(w, bounds))


def _power_configs(w, bounds):
    """The multisets of :func:`power_configs` one at a time; an entry is
    raised only while the least completion stays within the edge limit."""
    n = len(w)
    most = bounds.edge_limit(n) // n  # the largest power sum within the limit
    for m in range(1, min(bounds.max_disks, most) + 1):
        combo = [1] * m
        while combo:
            if sum(combo) * n % 2 == 0:
                yield tuple(combo)
            while combo:  # raise the last entry that can grow, the ones after it with it
                k = combo.pop() + 1
                if k <= bounds.max_power and sum(combo) + k * (m - len(combo)) <= most:
                    combo += [k] * (m - len(combo))
                    break


# The deadline is read every _CLOCK_NODES nodes and every _CLOCK_WORK
# candidate partners examined: one node of a long word scans hundreds.
_CLOCK_NODES = 2048
_CLOCK_WORK = 1 << 15

# A configuration whose G holds more slot images than this is searched without
# the cut; the module docstring says why its first certificate is the same.
_MAX_SYMMETRY_SLOTS = 10 ** 6


def _symmetries(w, disks):
    """G as (g, g^-1) slot permutations, less the identity: disks of equal
    power permuted, each base point rotated by multiples of |w|."""
    bases = list(itertools.accumulate((d.size for d in disks), initial=0))
    groups = {}
    for i, d in enumerate(disks):
        groups.setdefault(d.power, []).append(i)
    order = math.prod(map(math.factorial, map(len, groups.values())))
    if order * math.prod(d.power for d in disks) * bases[-1] > _MAX_SYMMETRY_SLOTS:
        return []  # searched without the cut
    out = []
    for perms in itertools.product(*map(itertools.permutations, groups.values())):
        target = dict(zip(itertools.chain(*groups.values()), itertools.chain(*perms)))
        for rots in itertools.product(*(range(d.power) for d in disks)):
            g = [
                bases[target[i]] + (p + r * len(w)) % d.size
                for i, (d, r) in enumerate(zip(disks, rots))
                for p in range(d.size)
            ]
            out.append((g, sorted(range(len(g)), key=g.__getitem__)))
    return out[1:]  # the first is the identity


class _Backtracker:
    """Pairing search on one disk configuration: ``_search`` yields every
    total, immersion-legal pairing that is the lex-leader of its G-orbit,
    in lexicographic order of P, without judging chi.  It keeps a stack
    of frames, one per paired slot, each with its next candidate partner,
    the undo record of the pair in place and the symmetries still watched.

    A node watches g in G from the first slot i where P and g(P), with
    g(P)[g(s)] = g(P[s]), may differ.  After a legal pair, i moves past
    the slots where both are determined and equal; the pair is cut if
    g(P) is then smaller, and g is dropped if it is larger.
    """

    def __init__(self, w, disks, deadline):
        self.word_length = len(w)
        self.letters, self.name, self.next_slot, self.disk_end = [], [], [], []
        base = 0
        for i, d in enumerate(disks):
            for j, x in enumerate(d.boundary_letters()):
                self.letters.append(x)
                self.name.append((i, j))
                self.next_slot.append(base + (j + 1) % d.size)
                self.disk_end.append(base + d.size)
            base += d.size
        self.total = base
        self.by_label, self.label_index = {}, []
        for s, x in enumerate(self.letters):
            self.label_index.append(len(self.by_label.setdefault(abs(x), [])))
            self.by_label[abs(x)].append(s)
        self.group = _symmetries(w, disks)
        self.partner = [-1] * base
        self.parent = list(range(base))
        self.rank_uf = [0] * base
        self.in_mask = [0] * base  # per root: generators entering the class
        self.out_mask = [0] * base  # per root: generators leaving it
        self.nodes = self.work = 0
        self.deadline = deadline

    def _apply_pair(self, s, t):
        """Glue slots s and t arrow-respectingly; the undo record, or None
        with nothing changed if the gluing breaks immersion.  Each end of s
        joins the class of the end of t it meets, plus the glued edge's end."""
        parent, rank, in_m, out_m = self.parent, self.rank_uf, self.in_mask, self.out_mask
        u, v = t, self.next_slot[t]  # the ends of t that meet s's start, end
        if (self.letters[s] > 0) != (self.letters[t] > 0):
            u, v = v, u
        bit, undo = 1 << abs(self.letters[s]), []
        leaves = bit if self.letters[s] > 0 else 0  # the edge leaves s's start
        for x, y, in_bit, out_bit in ((s, u, bit - leaves, leaves),
                                      (self.next_slot[s], v, leaves, bit - leaves)):
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            ins, outs, clash = in_m[x], out_m[x], 0
            if x != y:
                clash = in_m[x] & in_m[y] or out_m[x] & out_m[y]
                ins, outs = ins | in_m[y], outs | out_m[y]
                if rank[x] < rank[y]:
                    x, y = y, x
            if clash or ins & in_bit or outs & out_bit:
                self._undo(undo)
                return None
            undo.append((x, rank[x], in_m[x], out_m[x]))
            if x != y:
                undo.append((y, rank[y], in_m[y], out_m[y]))
                parent[y] = x
                rank[x] += rank[x] == rank[y]
            in_m[x], out_m[x] = ins | in_bit, outs | out_bit
        self.partner[s], self.partner[t] = t, s
        return undo

    def _revert_pair(self, s, undo):
        self.partner[self.partner[s]] = -1
        self.partner[s] = -1
        self._undo(undo)

    def _undo(self, undo):
        for r, rank, in_bits, out_bits in reversed(undo):
            self.parent[r] = r
            self.rank_uf[r] = rank
            self.in_mask[r] = in_bits
            self.out_mask[r] = out_bits

    def _agreement(self, watch):
        """The (g, g^-1, i) of ``watch`` still undecided, each i advanced,
        or None if some g makes g(P) lexicographically smaller than P."""
        partner, total = self.partner, self.total
        out = []
        for g, inverse, i in watch:
            while i < total:
                a, b = partner[i], partner[inverse[i]]
                if a < 0 or b < 0:
                    out.append((g, inverse, i))
                    break
                if a != g[b]:
                    if a > g[b]:
                        return None
                    break  # g(P) > P whatever follows
                i += 1
        return out

    def _tick(self, work):
        """Count work done; read the clock once _CLOCK_WORK has been done."""
        self.work += work
        if self.work >= _CLOCK_WORK:
            self.work = 0
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise _Timeout

    def _search(self):
        total, partner = self.total, self.partner
        stack = []  # frames [slot, next candidate index, undo, watch]
        s, watch = 0, [(g, inverse, 0) for g, inverse in self.group]
        while True:
            self.nodes += 1
            if self.nodes % _CLOCK_NODES == 0:
                self._tick(_CLOCK_WORK)
            while s < total and partner[s] >= 0:
                s += 1
            if s < total:
                stack.append([s, self.label_index[s] + 1, None, watch])
            else:
                self._tick(total)  # what certify will cost
                yield tuple((self.name[a], self.name[b]) for a, b in enumerate(partner) if b > a)
            while stack:
                frame = stack[-1]
                s, k, undo, base = frame
                if undo is not None:
                    self._revert_pair(s, undo)
                cands, first, watch = self.by_label[abs(self.letters[s])], k, None
                while k < len(cands) and watch is None:
                    t = cands[k]
                    k += 1
                    if partner[t] >= 0:
                        continue
                    if t < self.disk_end[s] and (t - s) % self.word_length == 0:
                        continue  # same disk, a multiple of |w| apart
                    undo = self._apply_pair(s, t)
                    if undo is not None:
                        watch = self._agreement(base)
                        if watch is None:
                            self._revert_pair(s, undo)
                self._tick(k - first)
                if watch is not None:
                    frame[1], frame[2] = k, undo
                    s += 1
                    break
                stack.pop()
            else:
                return


class _Progress:
    def __init__(self):
        self.nodes = 0
        self.configs_done = 0


def _certified(w, bounds, progress):
    """Yield the certificate of each completion ``certify`` accepts,
    configuration by configuration; raises _Timeout.  ``progress`` counts
    every node visited, the timed-out configuration's included."""
    budget = bounds.time_budget
    deadline = None if budget is None else time.monotonic() + budget
    for powers in _power_configs(w, bounds):
        disks = [DiskSpec(w, k) for k in powers]
        bt = _Backtracker(w, disks, deadline)
        try:
            for pairs in bt._search():
                cert = certify(w, disks, list(pairs))
                if cert.polygonal:
                    yield cert
        finally:
            progress.nodes += bt.nodes
        progress.configs_done += 1


def decide_polygonal(w: CyclicWord, bounds: SearchBounds):
    """Search the bounds for a certified surface: Found, ExhaustedWithin
    or TimedOut.

    Proper powers short-circuit to the declarative certificate.  Otherwise
    Found carries the first completion the certifier accepts, in the
    canonical enumeration order, found in one process under one deadline;
    ExhaustedWithin is a complete negative for the bounds.
    """
    if is_proper_power(w):
        return Found(proper_power_certificate(w))
    progress = _Progress()
    try:
        for cert in _certified(w, bounds, progress):
            return Found(cert)
    except _Timeout:
        return TimedOut(bounds, progress.nodes, progress.configs_done)
    return ExhaustedWithin(bounds, progress.nodes)


def enumerate_all(w: CyclicWord, bounds: SearchBounds) -> Iterator[PolygonalityCertificate]:
    """Every certified surface within bounds, one per class up to disk
    reordering and base-point rotation (every one, in a configuration past
    the symmetry bound), in the order decide_polygonal meets them; the
    listing ends early, quietly, at the time budget."""
    if is_proper_power(w):
        return
    try:
        yield from _certified(w, bounds, _Progress())
    except _Timeout:
        return
