"""Bounded search for a certified surface by backtracking over
side-pairings, with forward checking.

A configuration is a tuple of disk powers: disk i reads w^powers[i],
and the boundary letters of its disks are its slots, disk after disk.
Its completions go to ``certify`` as (w, powers, pairing).  Two slots
are legal partners when they carry the same generator, are not the same
disk's letters a multiple of |w| apart, and their gluing keeps the
quotient immersed.  The same-disk cut identifies vertices separated by
an interval reading a power of the boundary word, which forces the
half-rotation component with chi equal to its disk count.  Each root of
the rollback union-find of vertex classes holds two generator bitmasks,
the edges entering the class and those leaving it; a gluing is immersed
iff no class gets two in-edges or two out-edges of one generator.
Legality is symmetric in the two slots, and it only shrinks as pairs
are added.

A free slot of generator g is blocked when its tail lies in a class that
a g-edge already leaves, or its head in one that a g-edge already
enters: it has no legal partner, so no completion.  Legal partners are
usable when their gluing blocks no other free slot, a one-step look-ahead.
Each root also counts, per generator, the free slots whose tail lies in
its class and those whose head does, so only the classes the gluing
merges are read, from one walk up the four root chains of the pair's
ends.  Usability is symmetric too, and it only shrinks: a pair that
would block a free slot u still blocks it after more pairs, whose
classes and edges only grow, and once u is glued the same pair would
give one class two g-edges the same way, which is not legal.  The search
glues only usable pairs, so no free slot is ever blocked.

The least unpaired slot is branched on, with its partners in ascending
order.  Each free slot watches two usable partners.  Once the branch's
pair is glued, the free slots are re-examined in cyclic slot order from
the first, until every slot has been passed since the last gluing.  The
search backtracks as soon as a slot has no usable partner left, and
glues a slot with exactly one to it at once, which may force more.  Such
a forced pair is the slot's only option in every completion below the
branch, and usability only shrinks, so it stays forced, or the branch
fails, whatever is glued after it: the pairs placed, or the failure, do
not depend on which slots are re-examined or in what order.  The
completions are still met in lexicographic order of the partner array P
(P[s] is the slot glued to s): all completions below a branch share its
prefix and forced pairs, and siblings differ first at the branch slot.
A gluing that is legal but not usable belongs to no completion, so the
look-ahead cuts only subtrees without one: the completions, and their
order, are those of the search that tests legality alone.

A re-examined watch needs no look-ahead when no gluing since the
propagation began has changed its classes.  Each gluing is numbered, and
stamps the roots of the classes it changes with its number.  When a
propagation begins, every free slot's two watches are usable: the
node's own propagation ended with each one checked, and a watch only
moves to a partner usable in a state that contains the current one.
Usability of a pair reads only the roots of its two tail classes and two
head classes.  So a watch of two free slots whose four roots carry no
stamp newer than the propagation's start is usable still.  Backtracking
leaves the stamps alone: the next propagation begins past all of them.

The group G of a configuration permutes the disks of equal power
and rotates each disk's base point by multiples of |w|: as w is not a
proper power, every rotation and exchange of disks that keeps letters.
A branch is cut once some g in G makes g(P) lexicographically smaller
than P on the slots already determined, so each G-orbit is completed
once, at its least member (its lex-leader).  The cut only reads slots
that are already paired, whether by a branch or by force, so it holds
for every completion of the branch whatever order the slots were filled
in.  Immersion, the same-disk cut and ``certify`` are G-invariant, so an
orbit is certified whole or not at all, and a search without the cut
meets an orbit's members in lexicographic order, lex-leader first: the
first certificate and the one-per-orbit list are the same with the cut
as without it.

One lazy generator walks the configurations of ``power_configs`` in
order, in one process under one deadline, and yields each completion
that ``certify`` accepts; the certifier is the only check applied to a
completion.  ``decide_polygonal`` returns the first, so a certificate
found before the deadline is never lost.  The deadline is read by work
done, the setup of each configuration included.  ExhaustedWithin is a
complete negative for the bounds; it is evidence, not proof, of
non-polygonality in general.  Its ``nodes``, and TimedOut's, count the
branch points and leaves of the propagating tree.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .complexes import PolygonalityCertificate, certify, proper_power_certificate
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


# The deadline is read once _CLOCK_WORK units of work have been done: a slot
# set up, a candidate partner examined, each slot of a round of propagation,
# a watch re-examined (with or without its look-ahead), a symmetry image's
# slot, a node.
_CLOCK_WORK = 1 << 15

# A configuration whose G holds more slot images than this is searched without
# the cut; the module docstring says why its first certificate is the same.
_MAX_SYMMETRY_SLOTS = 10 ** 6


def _symmetries(w, powers, tick):
    """G as (g, g^-1) slot permutations, less the identity: disks of equal
    power permuted, each base point rotated by multiples of |w|."""
    n = len(w)
    bases = list(itertools.accumulate((k * n for k in powers), initial=0))
    groups = {}
    for i, k in enumerate(powers):
        groups.setdefault(k, []).append(i)
    order = math.prod(map(math.factorial, map(len, groups.values())))
    if order * math.prod(powers) * bases[-1] > _MAX_SYMMETRY_SLOTS:
        return []  # searched without the cut
    moves = itertools.product(itertools.product(*map(itertools.permutations, groups.values())),
                              itertools.product(*map(range, powers)))
    next(moves)  # the identity
    out = []
    for perms, rots in moves:
        target = dict(zip(itertools.chain(*groups.values()), itertools.chain(*perms)))
        g = [
            bases[target[i]] + (p + r * n) % (k * n)
            for i, (k, r) in enumerate(zip(powers, rots))
            for p in range(k * n)
        ]
        out.append((g, sorted(range(len(g)), key=g.__getitem__)))
        tick(len(g))
    return out


class _Backtracker:
    """Pairing search on one disk configuration: ``_search`` yields every
    total, legal pairing that is the lex-leader of its G-orbit, in
    lexicographic order of P, without judging chi.

    Vertices are named by slots: vertex v starts slot v.  Each root of
    the rollback union-find of vertex classes holds two generator masks,
    the edges entering the class and those leaving it, and two counts per
    generator, the free slots whose tail lies in the class and those
    whose head does.  Generator k owns the k-th field of
    ``total.bit_length()`` bits in one int: a mask holds 1 in the field's
    lowest bit and a count holds the number, so a merge adds the counts,
    a glued pair subtracts its two ends (its ``bit``, twice), and
    ``mask * full`` selects the counts of the mask's generators.
    ``_merge`` walks the four root chains of a candidate pair once, and
    ``_legal`` and ``_usable`` read only its answer.  Every change (a pair
    placed, a merge, a mask widened, a count changed) goes on a trail, and
    backtracking pops the trail to a mark.

    Each slot watches two of its usable partners.  ``_propagate`` goes
    round the free slots in slot order until it has passed every slot
    since its last gluing, and ``_rewatch`` re-examines each.  A watch
    counts as usable with no ``_usable`` call when ``_settled`` finds that
    no gluing of this propagation has stamped a root of the two slots'
    classes: ``_join`` stamps each root it changes with the number of the
    gluing, and every watch is usable when a propagation begins.  A slot
    left with one usable partner is glued to it at once, so the slots
    re-examined after it see its classes merged.  A forced pair lies in
    every completion below the branch and usability only shrinks, so the
    pairs placed, or the failure, are the same in any order of
    re-examination; only the watches chosen and the work done differ.  A
    watch that lapses is moved to another usable partner; when there is
    none it stays where it was, so that the pair it names, cut at the
    current level, is usable again once that level is undone.  A watch
    moves only to a partner usable in a state that contains every state
    the search can backtrack to while the slot is free; usability only
    shrinks, so no watch is ever undone.  The look-ahead keeps the branch
    order and the lex-leader cut, and cuts only subtrees with no
    completion, so the completions come in the same order as without it;
    only nodes fall.
    """

    def __init__(self, w, powers, deadline):
        n, letters, key, nxt = len(w), [], [], []
        self.deadline, self.work, self.nodes, self.sizes = deadline, 0, 0, [k * n for k in powers]
        for k, size in zip(powers, self.sizes):
            base = len(letters)
            letters += w.letters * k
            key += list(range(base, base + n)) * k  # equal keys: a cut pair
            nxt += [*range(base + 1, base + size), base]
            self._tick(size)
        self.total = total = len(letters)
        self.key = key
        width = total.bit_length()  # a field holds any count of slots
        self.full = (1 << width) - 1
        self.tails, self.heads = [0] * total, [0] * total  # per root: free slots' ends
        self.tail, self.head, self.bit, self.by_label, self.label_index = [], [], [], {}, []
        for s, (x, end) in enumerate(zip(letters, nxt)):
            self.tail.append(s if x > 0 else end)
            self.head.append(end if x > 0 else s)
            self.bit.append(1 << width * abs(x))
            self.tails[self.tail[s]] += self.bit[s]
            self.heads[self.head[s]] += self.bit[s]
            cands = self.by_label.setdefault(self.bit[s], [])
            self.label_index.append(len(cands))
            cands.append(s)
            self._tick(1)
        self.group = _symmetries(w, powers, self._tick)
        self.partner = [-1] * total
        self.parent = list(range(total))
        self.rank_uf = [0] * total
        self.in_mask, self.out_mask = [0] * total, [0] * total  # per root: edges entering, leaving
        self.paired, self.trail = [], []  # slots placed first in a pair; merges
        self.watch = [-1] * (2 * total)  # watch[2s + i]: the i-th partner s watches
        self.stamp = [0] * total  # per root: the gluing that last changed its class
        self.gluings = self.since = 0  # gluings so far; their count when propagation began
        self._tick(total)

    def _find(self, v):
        parent = self.parent
        while parent[v] != v:
            v = parent[v]
        return v

    def _merge(self, s, t):
        """The roots a, b of s's and t's tail classes and c, d of their head
        classes, each chain walked once, then the in- and out-masks of the
        tail and head classes their gluing makes (one class if they share a
        root); None unless it is immersed: the tail classes merge and gain
        the glued edge leaving them, with no generator leaving or entering
        twice, then the head classes.  Symmetric in s and t."""
        parent, in_m, out_m, bit = self.parent, self.in_mask, self.out_mask, self.bit[s]
        a, b, c, d = self.tail[s], self.tail[t], self.head[s], self.head[t]
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        while parent[c] != c:
            c = parent[c]
        while parent[d] != d:
            d = parent[d]
        ins, outs = in_m[a], out_m[a]
        if a != b:
            if ins & in_m[b] or outs & out_m[b]:
                return None
            ins, outs = ins | in_m[b], outs | out_m[b]
        if outs & bit:
            return None
        outs |= bit
        c_tail, d_tail = c == a or c == b, d == a or d == b
        c_in, c_out = (ins, outs) if c_tail else (in_m[c], out_m[c])
        if c != d and not (c_tail and d_tail):
            d_in, d_out = (ins, outs) if d_tail else (in_m[d], out_m[d])
            if c_in & d_in or c_out & d_out:
                return None
            c_in, c_out = c_in | d_in, c_out | d_out
        if c_in & bit:
            return None
        return a, b, c, d, ins, outs, c_in | bit, c_out

    def _legal(self, s, t):
        """Whether the gluing of s and t keeps the quotient immersed."""
        return self._merge(s, t) is not None

    def _usable(self, s, t):
        """Whether the gluing of s and t is legal and blocks no other free
        slot: after it, no free slot of a generator has its tail in a class
        an edge of that generator leaves, or its head in one such an edge
        enters.  Only the roots ``_merge`` found are read.  Symmetric."""
        if (merged := self._merge(s, t)) is None:
            return False
        a, b, c, d, tail_in, tail_out, head_in, head_out = merged
        tails, heads, full, glued = self.tails, self.heads, self.full, 2 * self.bit[s]
        free_tails, free_heads = tails[a] - glued, heads[a]  # s and t are glued
        if b != a:
            free_tails, free_heads = free_tails + tails[b], free_heads + heads[b]
        if not (c == a or c == b or d == a or d == b):  # two classes: the tail one first
            if free_tails & tail_out * full or free_heads & tail_in * full:
                return False
            free_tails = free_heads = 0
        if c != a and c != b:  # the head roots not counted yet
            free_tails, free_heads = free_tails + tails[c], free_heads + heads[c]
        if d != a and d != b and d != c:
            free_tails, free_heads = free_tails + tails[d], free_heads + heads[d]
        return not (free_tails & head_out * full or (free_heads - glued) & head_in * full)

    def _join(self, s, t):
        """Glue the usable pair s, t: merge the classes of their tails and
        of their heads, record the glued edge in both, and take s and t
        out of the free-slot counts."""
        parent, rank, in_m, out_m, tails, heads = (
            self.parent, self.rank_uf, self.in_mask, self.out_mask, self.tails, self.heads)
        bit, stamp = self.bit[s], self.stamp
        self.gluings += 1
        for u, v, in_bit, out_bit in ((self.tail[s], self.tail[t], 0, bit),
                                      (self.head[s], self.head[t], bit, 0)):
            x, y = self._find(u), self._find(v)
            if rank[x] < rank[y]:
                x, y = y, x
            self.trail.append((x, rank[x], in_m[x], out_m[x], tails[x], heads[x], y))
            if x != y:
                parent[y] = x
                rank[x] += rank[x] == rank[y]
                tails[x] += tails[y]
                heads[x] += heads[y]
            in_m[x] |= in_m[y] | in_bit
            out_m[x] |= out_m[y] | out_bit
            tails[x] -= 2 * out_bit
            heads[x] -= 2 * in_bit
            stamp[x] = self.gluings
        self.partner[s], self.partner[t] = t, s
        self.paired.append(s)

    def _undo(self, marks):
        """Pop the trail back to ``marks``, the lengths of paired and trail."""
        partner, paired, trail = self.partner, self.paired, self.trail
        while len(paired) > marks[0]:
            s = paired.pop()
            partner[partner[s]] = partner[s] = -1
        while len(trail) > marks[1]:
            x, rank, ins, outs, tails, heads, y = trail.pop()
            self.rank_uf[x], self.in_mask[x], self.out_mask[x] = rank, ins, outs
            self.tails[x], self.heads[x] = tails, heads
            if x != y:
                self.parent[y] = y

    def _settled(self, s):
        """Whether no gluing since the propagation began has changed the
        classes of s's tail and head."""
        parent, stamp, since = self.parent, self.stamp, self.since
        a, c = self.tail[s], self.head[s]
        while parent[a] != a:
            a = parent[a]
        while parent[c] != c:
            c = parent[c]
        return stamp[a] <= since and stamp[c] <= since

    def _rewatch(self, s):
        """The usable partners among s's watches, after each lapsed watch has
        been moved to a usable partner not watched yet, where there is one.
        One scan from s in its generator's cyclic slot order (not from a
        lapsed watch: moved watches would pile onto the branch's next
        candidate) gives the lapsed watches the first usable partners it
        meets.  A second scan would restart there in the same state and pass
        over the first's pick, so the watches chosen are those of two scans."""
        watch, partner, key = self.watch, self.partner, self.key
        usable, lapsed, step, settled = [], [], 0, self._settled(s)
        for k in (2 * s, 2 * s + 1):
            t = watch[k]
            if t >= 0 and partner[t] < 0 and (settled and self._settled(t) or self._usable(s, t)):
                usable.append(t)
            else:
                lapsed.append(k)
        if lapsed:
            cands, kept = self.by_label[self.bit[s]], usable[0] if usable else -1
            n, start = len(cands), self.label_index[s]
            for step in range(1, n):
                u = cands[(start + step) % n]
                if u != kept and partner[u] < 0 and key[u] != key[s] and self._usable(s, u):
                    watch[lapsed.pop(0)] = u
                    usable.append(u)
                    if not lapsed:
                        break
        self._tick(2 + step)
        return usable

    def _propagate(self, todo):
        """Place the pairs of ``todo`` and every pair they force, until each
        free slot has two usable partners; False as soon as one has none.
        Goes round the free slots in slot order, from the first, each
        re-examined by ``_rewatch`` and glued at once to its partner if it
        has one usable partner, until it has passed every slot since its
        last gluing."""
        partner, total = self.partner, self.total
        self.since = self.gluings
        for s, t in todo:
            if partner[s] >= 0 or partner[t] >= 0 or not self._usable(s, t):
                return False
            self._join(s, t)
        s = quiet = 0  # quiet: slots passed since the last gluing
        while quiet < total:
            if s == 0:
                self._tick(total)
            if partner[s] < 0 and len(usable := self._rewatch(s)) < 2:
                if not usable:
                    return False
                self._join(s, usable[0])
                quiet = 0
            quiet += 1
            s = (s + 1) % total
        return True

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
        total, partner, key = self.total, self.partner, self.key
        if not self._propagate([]):
            return
        watch = self._agreement([(g, inverse, 0) for g, inverse in self.group])
        if watch is None:
            return
        stack = []  # frames [slot, next candidate index, marks, watch]
        s = 0
        while True:
            self.nodes += 1
            self._tick(1)
            while s < total and partner[s] >= 0:
                s += 1
            if s < total:
                stack.append([s, self.label_index[s] + 1, None, watch])
            else:
                self._tick(total)  # what certify will cost
                name = [(i, j) for i, size in enumerate(self.sizes) for j in range(size)]
                yield tuple((name[a], name[b]) for a, b in enumerate(partner) if b > a)
            while stack:
                frame = stack[-1]
                s, k, marks, base = frame
                if marks is not None:
                    self._undo(marks)
                cands, first, watch = self.by_label[self.bit[s]], k, None
                while k < len(cands) and watch is None:
                    t = cands[k]
                    k += 1
                    if partner[t] >= 0 or key[t] == key[s]:
                        continue
                    marks = len(self.paired), len(self.trail)
                    if self._propagate([(s, t)]):
                        watch = self._agreement(base)
                    if watch is None:
                        self._undo(marks)
                self._tick(k - first)
                if watch is not None:
                    frame[1], frame[2] = k, marks
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
        bt = _Backtracker(w, powers, deadline)
        try:
            for pairs in bt._search():
                cert = certify(w, powers, list(pairs))
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
