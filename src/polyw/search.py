"""Bounded search for a certified surface by backtracking over
side-pairings.

Slots are paired in canonical order (least unpaired slot first, partners
ascending), maintaining a rollback union-find of vertex classes with
per-class label in/out counts so immersion violations prune immediately.
A same-disk pair whose position difference is a multiple of |w| is cut:
it identifies vertices separated by an interval reading a power of the
boundary word, which forces the half-rotation component with chi equal
to its disk count.

One lazy generator walks the disk configurations of ``power_configs`` in
order, in one process and under one deadline, and yields each completed
pairing that ``certify`` accepts; the certifier is the only check applied
to a completion.  ``decide_polygonal`` returns the first, so a
certificate found before the deadline is never lost.  ExhaustedWithin is
a complete negative for the bounds; it is evidence, not proof, of
non-polygonality in general.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .complexes import (
    DiskSpec,
    PolygonalityCertificate,
    certify,
    proper_power_certificate,
)
from .words import CyclicWord, is_proper_power


@dataclass(frozen=True)
class SearchBounds:
    max_disks: int = 2
    max_edges: int = 0  # 0: default to 2 * max_power * |w|
    max_power: int = 2
    allow_negative_powers: bool = False
    time_budget: Optional[float] = None  # seconds

    def __post_init__(self):
        if self.max_disks < 1 or self.max_power < 1:
            raise ValueError("bounds must allow at least one disk and power")

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
    allowed = list(range(1, bounds.max_power + 1))
    if bounds.allow_negative_powers:
        allowed = [s * k for k in range(1, bounds.max_power + 1) for s in (1, -1)]
    limit = bounds.edge_limit(len(w))
    out = []
    for m in range(1, bounds.max_disks + 1):
        for combo in itertools.combinations_with_replacement(allowed, m):
            total = sum(abs(k) for k in combo) * len(w)
            if total > limit or total % 2:
                continue
            out.append(combo)
    return out


class _Backtracker:
    """Exhaustive pairing search on one disk configuration; ``_search``
    yields every total, immersion-legal pairing without judging chi."""

    def __init__(self, w, disks, deadline):
        self.word_length = len(w)
        self.letters = []
        self.disk_of = []
        self.pos_of = []
        self.size_of_disk = [d.size for d in disks]
        base = 0
        self.base_of_disk = []
        for i, d in enumerate(disks):
            self.base_of_disk.append(base)
            for j, x in enumerate(d.boundary_letters()):
                self.letters.append(x)
                self.disk_of.append(i)
                self.pos_of.append(j)
            base += d.size
        self.total = base
        self.rank = w.rank
        # polygon vertex v of slot s: start = global index of s, end = next slot
        self.next_slot = []
        for s in range(self.total):
            i = self.disk_of[s]
            j = (self.pos_of[s] + 1) % self.size_of_disk[i]
            self.next_slot.append(self.base_of_disk[i] + j)
        self.partner = [-1] * self.total
        self.parent = list(range(self.total))
        self.rank_uf = [0] * self.total
        # per-root incidence counts, one row per vertex, columns per generator
        self.cnt_in = [[0] * (self.rank + 1) for _ in range(self.total)]
        self.cnt_out = [[0] * (self.rank + 1) for _ in range(self.total)]
        self.by_label = {}
        for s in range(self.total):
            self.by_label.setdefault(abs(self.letters[s]), []).append(s)
        self.nodes = 0
        self.deadline = deadline

    # union-find without path compression, with undo log
    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def _union(self, a, b, log):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        if self.rank_uf[ra] < self.rank_uf[rb]:
            ra, rb = rb, ra
        bumped = False
        if self.rank_uf[ra] == self.rank_uf[rb]:
            self.rank_uf[ra] += 1
            bumped = True
        self.parent[rb] = ra
        cin_a, cin_b = self.cnt_in[ra], self.cnt_in[rb]
        cout_a, cout_b = self.cnt_out[ra], self.cnt_out[rb]
        ok = True
        for g in range(1, self.rank + 1):
            cin_a[g] += cin_b[g]
            cout_a[g] += cout_b[g]
            if cin_a[g] > 1 or cout_a[g] > 1:
                ok = False
        log.append(("union", ra, rb, bumped))
        return ok

    def _add_edge(self, tail, head, g, log):
        rt, rh = self.find(tail), self.find(head)
        self.cnt_out[rt][g] += 1
        log.append(("out", rt, g))
        if self.cnt_out[rt][g] > 1:
            return False
        self.cnt_in[rh][g] += 1
        log.append(("in", rh, g))
        return self.cnt_in[rh][g] <= 1

    def _undo(self, log):
        for entry in reversed(log):
            kind = entry[0]
            if kind == "union":
                _, ra, rb, bumped = entry
                self.parent[rb] = rb
                if bumped:
                    self.rank_uf[ra] -= 1
                for g in range(1, self.rank + 1):
                    self.cnt_in[ra][g] -= self.cnt_in[rb][g]
                    self.cnt_out[ra][g] -= self.cnt_out[rb][g]
            elif kind == "out":
                _, r, g = entry
                self.cnt_out[r][g] -= 1
            else:
                _, r, g = entry
                self.cnt_in[r][g] -= 1

    def _apply_pair(self, s, t):
        """Glue slots s and t arrow-respectingly; None on violation."""
        log = []
        xs, xt = self.letters[s], self.letters[t]
        s_start, s_end = s, self.next_slot[s]
        t_start, t_end = t, self.next_slot[t]
        if (xs > 0) == (xt > 0):
            ok = self._union(s_start, t_start, log) and self._union(s_end, t_end, log)
        else:
            ok = self._union(s_start, t_end, log) and self._union(s_end, t_start, log)
        if ok:
            if xs > 0:
                tail, head = s_start, s_end
            else:
                tail, head = s_end, s_start
            ok = self._add_edge(tail, head, abs(xs), log)
        if not ok:
            self._undo(log)
            return None
        self.partner[s] = t
        self.partner[t] = s
        return log

    def _revert_pair(self, s, t, log):
        self.partner[s] = -1
        self.partner[t] = -1
        self._undo(log)

    def _forbidden(self, s, t):
        # same-disk pair separated by a multiple of |w| forces the
        # half-rotation component with chi = its disk count
        if self.disk_of[s] == self.disk_of[t]:
            if (self.pos_of[t] - self.pos_of[s]) % self.word_length == 0:
                return True
        return False

    def _search(self, scan_from):
        self.nodes += 1
        if self.deadline is not None and self.nodes % 2048 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout
        s = scan_from
        while s < self.total and self.partner[s] >= 0:
            s += 1
        if s >= self.total:
            yield tuple(
                ((self.disk_of[a], self.pos_of[a]),
                 (self.disk_of[self.partner[a]], self.pos_of[self.partner[a]]))
                for a in range(self.total)
                if self.partner[a] > a
            )
            return
        for t in self.by_label[abs(self.letters[s])]:
            if t <= s or self.partner[t] >= 0 or self._forbidden(s, t):
                continue
            log = self._apply_pair(s, t)
            if log is None:
                continue
            yield from self._search(s + 1)
            self._revert_pair(s, t, log)


def _canonical_cert_key(w, powers, pairs):
    """Pairing key invariant under reordering equal-power disks and
    rotating disk base points by multiples of |w|."""
    n = len(w)
    sizes = [abs(k) * n for k in powers]
    groups = {}
    for i, k in enumerate(powers):
        groups.setdefault(k, []).append(i)
    perms_per_group = [list(itertools.permutations(g)) for g in groups.values()]
    rotations = [range(abs(k)) for k in powers]
    best = None
    for perm_combo in itertools.product(*perms_per_group):
        mapping = {}
        for orig_group, permuted in zip(groups.values(), perm_combo):
            for a, b in zip(orig_group, permuted):
                mapping[a] = b
        for rots in itertools.product(*rotations):
            remapped = []
            for (i, j), (i2, j2) in pairs:
                a = (mapping[i], (j - rots[i] * n) % sizes[i])
                b = (mapping[i2], (j2 - rots[i2] * n) % sizes[i2])
                remapped.append((min(a, b), max(a, b)))
            key = tuple(sorted(remapped))
            if best is None or key < best:
                best = key
    return best


class _Progress:
    def __init__(self):
        self.nodes = 0
        self.configs_done = 0


def _certified(w, bounds, progress):
    """Yield (powers, pairs, certificate) for each completion ``certify``
    accepts, configuration by configuration; raises _Timeout.  ``progress``
    counts every node visited, the timed-out configuration's included."""
    deadline = (
        None if bounds.time_budget is None else time.monotonic() + bounds.time_budget
    )
    for powers in power_configs(w, bounds):
        disks = [DiskSpec(w, k) for k in powers]
        bt = _Backtracker(w, disks, deadline)
        try:
            for pairs in bt._search(0):
                cert = certify(w, disks, list(pairs))
                if cert.polygonal:
                    yield powers, pairs, cert
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
        for _powers, _pairs, cert in _certified(w, bounds, progress):
            return Found(cert)
    except _Timeout:
        return TimedOut(bounds, progress.nodes, progress.configs_done)
    return ExhaustedWithin(bounds, progress.nodes)


def enumerate_all(w: CyclicWord, bounds: SearchBounds) -> Iterator[PolygonalityCertificate]:
    """Every certified surface within bounds, deduplicated up to disk
    reordering and base-point rotation, in the order decide_polygonal
    meets them."""
    if is_proper_power(w):
        return
    seen = set()
    for powers, pairs, cert in _certified(w, bounds, _Progress()):
        key = (powers, _canonical_cert_key(w, powers, pairs))
        if key not in seen:
            seen.add(key)
            yield cert
