"""Independent brute-force oracles used by the test and acceptance suites.

These deliberately re-derive membership from the definitions (set
partitions, perfect matchings, literal modular-disjointness) with no
pruning or memoization, so they share no logic with the library's
backtracking implementations.
"""

import itertools


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def block_is_cycle(pairs):
    """Some ordering/orientation of the pairs chains into a closed cycle
    whose generator absolute values are pairwise distinct."""
    for perm in itertools.permutations(pairs):
        for bits in itertools.product((0, 1), repeat=len(perm)):
            oriented = [p if b == 0 else (-p[1], -p[0]) for p, b in zip(perm, bits)]
            if any(
                oriented[i][1] != oriented[(i + 1) % len(oriented)][0]
                for i in range(len(oriented))
            ):
                continue
            heads = [p[0] for p in oriented]
            if len({abs(h) for h in heads}) == len(heads):
                return True
    return False


def tn_oracle(element):
    for part in set_partitions(list(element.pairs)):
        if all(block_is_cycle(block) for block in part):
            return True
    return False


def matchings(indices):
    if not indices:
        yield []
        return
    first = indices[0]
    for k in range(1, len(indices)):
        rest = indices[1:k] + indices[k + 1 :]
        for m in matchings(rest):
            yield [(first, indices[k])] + m


def u_pair_ok(t1, t2):
    m1, m2 = sum(t1.composition), sum(t2.composition)
    if m1 != m2:
        return False
    if t1.sign != t2.sign:
        return True

    def sums(comp):
        return {sum(comp[: k + 1]) % m1 for k in range(len(comp))}

    s1, s2 = sums(t1.composition), sums(t2.composition)
    return any(not ({(c + x) % m1 for x in s1} & s2) for c in range(m1))


def u_oracle(multiset):
    if len(multiset) % 2:
        return False
    terms = list(multiset.terms)
    for matching in matchings(list(range(len(terms)))):
        if all(u_pair_ok(terms[i], terms[j]) for i, j in matching):
            return True
    return False


def rank2_cyclic_words(length):
    """Every rank-2 cyclic word of the given length, once per rotation
    class, proper powers included."""
    from polyw.words import CyclicWord

    seen = set()
    for letters in itertools.product((1, -1, 2, -2), repeat=length):
        try:
            w = CyclicWord(2, letters)
        except ValueError:
            continue
        if w not in seen:
            seen.add(w)
            yield w


def least_rotation(letters, key):
    """The lexicographically least rotation of ``letters`` under ``key``,
    by comparing all of them."""
    keys = [key(x) for x in letters]
    n = len(letters)
    best = min(range(n), key=lambda r: keys[r:] + keys[:r])
    return tuple(letters[best:]) + tuple(letters[:best])


def pairing_orbit_key(w, powers, pairs):
    """A key equal for two pairings of the same disks iff one is the other
    after reordering equal-power disks and rotating disk base points by
    multiples of |w|: the least sorted pair list over all those moves."""
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


def _folds(letters, nxt, prv, partner):
    """True if some glued pair identifies two vertices whose other boundary
    edges carry the same generator in the same direction there, and those
    two edges are not glued to each other: a vertex with two in-edges or
    two out-edges of one generator, whatever the rest of the pairing."""
    for s, t in enumerate(partner):
        if t < 0:
            continue
        if (letters[s] > 0) == (letters[t] > 0):
            meets = ((prv[s], prv[t], 1, 1), (nxt[s], nxt[t], -1, -1))
        else:
            meets = ((prv[s], nxt[t], 1, -1), (nxt[s], prv[t], -1, 1))
        for u, v, su, sv in meets:
            # su * letter > 0 means the edge runs into the shared vertex
            if su * letters[u] != sv * letters[v]:
                continue
            if (partner[u] >= 0 and partner[u] != v) or (partner[v] >= 0 and partner[v] != u):
                return True
    return False


def certified_pairings(w, powers):
    """Certificates of the side-pairings of disks reading w^k (k in
    ``powers``) that ``certify`` accepts, one per orbit of
    ``pairing_orbit_key``, in lexicographic order of the partner array.

    Every label-respecting perfect matching is listed, least free slot
    first with its partners ascending; a partial matching is dropped only
    when ``_folds`` shows that no completion is an immersion.
    """
    from polyw.complexes import DiskSpec, certify

    disks = [DiskSpec(w, k) for k in powers]
    names, letters, nxt, prv = [], [], [], []
    for i, d in enumerate(disks):
        base = len(names)
        for j, x in enumerate(d.boundary_letters()):
            names.append((i, j))
            letters.append(x)
            nxt.append(base + (j + 1) % d.size)
            prv.append(base + (j - 1) % d.size)
    partner = [-1] * len(names)

    def matchings():
        free = [s for s in range(len(names)) if partner[s] < 0]
        if not free:
            yield [(names[s], names[t]) for s, t in enumerate(partner) if s < t]
            return
        s = free[0]
        for t in free[1:]:
            if abs(letters[t]) != abs(letters[s]):
                continue
            partner[s], partner[t] = t, s
            if not _folds(letters, nxt, prv, partner):
                yield from matchings()
            partner[s] = partner[t] = -1

    seen = set()
    for pairs in matchings():
        cert = certify(w, disks, pairs)
        if cert.polygonal:
            key = pairing_orbit_key(w, powers, pairs)
            if key not in seen:
                seen.add(key)
                yield cert


def parse_letters_recursive(text):
    """The letters of word text, by recursive descent over the grammar
    ``word := term+ ; term := atom ("^" (int | atom))? ;
    atom := letter | "(" word ")"``; malformed text raises
    ``WordSyntaxError`` with the message and position ``parse_word`` gives.
    Its recursion depth grows with the nesting of the text."""
    import string

    from polyw.words import WordSyntaxError

    src = text
    pos = 0

    def inverse(letters):
        return [-x for x in reversed(letters)]

    def skip_ws():
        nonlocal pos
        while pos < len(src) and src[pos].isspace():
            pos += 1

    def peek():
        skip_ws()
        return src[pos] if pos < len(src) else ""

    def parse_int():
        nonlocal pos
        skip_ws()
        start = pos
        if pos < len(src) and src[pos] in "+-":
            pos += 1
        digits = pos
        while pos < len(src) and src[pos].isdigit():
            pos += 1
        if pos == digits:
            raise WordSyntaxError("expected an integer exponent", start)
        value = int(src[start:pos])
        if value == 0:
            raise WordSyntaxError("exponent must be nonzero", start)
        return value

    def parse_atom():
        nonlocal pos
        skip_ws()
        if pos >= len(src):
            raise WordSyntaxError("unexpected end of input", pos)
        ch = src[pos]
        if ch == "(":
            open_pos = pos
            pos += 1
            inner = parse_expr()
            if peek() != ")":
                raise WordSyntaxError("unbalanced '('", open_pos)
            pos += 1
            return inner
        if ch in string.ascii_lowercase:
            pos += 1
            return [ord(ch) - ord("a") + 1]
        if ch in string.ascii_uppercase:
            pos += 1
            return [-(ord(ch) - ord("A") + 1)]
        raise WordSyntaxError("unexpected character %r" % ch, pos)

    def parse_term():
        nonlocal pos
        base = parse_atom()
        if peek() == "^":
            pos += 1
            skip_ws()
            if pos < len(src) and (src[pos].isdigit() or src[pos] in "+-"):
                e = parse_int()
                if e > 0:
                    return base * e
                return inverse(base) * (-e)
            conj = parse_atom()
            return inverse(conj) + base + conj
        return base

    def parse_expr():
        out = parse_term()
        while True:
            c = peek()
            if c == "" or c == ")":
                return out
            out += parse_term()

    letters = parse_expr()
    if pos < len(src):
        raise WordSyntaxError("trailing input", pos)
    return tuple(letters)


def diskbusting_by_orbit(w):
    """Whether w lies in no proper free factor, by Whitehead's criterion
    read literally: no word of the minimal orbit of w omits a generator.
    Rank 1 is False by convention."""
    from polyw.whitehead import minimal_orbit, minimize

    if w.rank == 1:
        return False
    full = frozenset(range(1, w.rank + 1))
    return all(m.support() == full for m in minimal_orbit(minimize(w).final))


def height_one_by_transport(w):
    """The height-one certificate by the route that exchanges the run
    families outside the word: construct on the b-flipped word, where the
    roles trade places, and carry the certificate and its construction
    record back along the flip."""
    from polyw.complexes import transform_certificate
    from polyw.constructors import construct_height_one
    from polyw.words import Relabeling, transform

    flip = Relabeling(invert=frozenset({2}))
    inner = construct_height_one(transform(w, flip))
    out = transform_certificate(inner, flip)
    out.construction = inner.construction
    return out


def cyclic_run_stats(bits):
    """(p, q, p', q', l, s) of the word with 0 = a, 1 = b, position by
    position: a cyclic run starts at i when bits[i] differs from
    bits[i - 1], and walking on from i gives its length.  p' and q' count
    the a- and b-runs of length 1, l the a-runs, and s the runs of the
    word read linearly; l is 0.5 for a word in one letter."""
    n = len(bits)
    p = sum(1 for b in bits if b == 0)
    s = 1 + sum(1 for i in range(1, n) if bits[i] != bits[i - 1])
    lengths = {0: [], 1: []}
    for i in range(n):
        if bits[i] != bits[i - 1]:
            length = 1
            while bits[(i + length) % n] == bits[i]:
                length += 1
            lengths[bits[i]].append(length)
    if not lengths[0]:
        return p, n - p, 0, 0, 0.5, s
    return p, n - p, lengths[0].count(1), lengths[1].count(1), float(len(lengths[0])), s


def cycle_cover_lp(w):
    """The optimum of the cycle-cover LP of w, or None if it is infeasible.

    Straight from the definition: one row per corner dart pair
    {x_{j-1}^-1, x_j} with its count m_e of positions j; one column per
    simple dart cycle of length >= 3 (found among all dart permutations)
    and per 2-cycle on a pair with m_e >= 2; maximise sum (|c| - 2) x_c
    with every row covered exactly, x >= 0.  A dense Fraction tableau
    with one artificial per row and the lexicographic objective (phase 1,
    phase 2), entering and leaving by Bland's rule.
    """
    from collections import Counter
    from fractions import Fraction

    n = len(w.letters)
    capacity = Counter(frozenset((-w.letters[j - 1], w.letters[j])) for j in range(n))
    rows = sorted(capacity, key=sorted)
    darts = sorted({x for e in rows for x in e})
    columns = []  # (objective, row indices with multiplicity)
    for k in range(3, len(darts) + 1):
        for cycle in itertools.permutations(darts, k):
            if cycle[0] != min(cycle) or cycle[1] > cycle[-1]:
                continue
            edges = [frozenset((cycle[i], cycle[(i + 1) % k])) for i in range(k)]
            if all(e in capacity for e in edges):
                columns.append((k - 2, [rows.index(e) for e in edges]))
    columns += [(0, [i, i]) for i, e in enumerate(rows) if capacity[e] >= 2]
    r, c = len(rows), len(columns)
    table = [[Fraction(0)] * (c + r) + [Fraction(capacity[e])] for e in rows]
    for j, (_gain, hits) in enumerate(columns):
        for i in hits:
            table[i][j] += 1
    for i in range(r):
        table[i][c + i] = Fraction(1)
    cost = [(0, gain) for gain, _hits in columns] + [(-1, 0)] * r
    basis = list(range(c, c + r))

    def reduced(j):
        return tuple(
            cost[j][t] - sum(cost[basis[i]][t] * table[i][j] for i in range(r))
            for t in (0, 1)
        )

    while True:
        enter = next((j for j in range(c + r) if reduced(j) > (0, 0)), None)
        if enter is None:
            break
        leave = min(
            (i for i in range(r) if table[i][enter] > 0),
            key=lambda i: (table[i][-1] / table[i][enter], basis[i]),
        )  # the objective is at most n, so some row bounds the step
        pivot = table[leave][enter]
        table[leave] = [a / pivot for a in table[leave]]
        for i in range(r):
            if i != leave and table[i][enter]:
                f = table[i][enter]
                table[i] = [a - f * b for a, b in zip(table[i], table[leave])]
        basis[leave] = enter
    value = [sum(cost[basis[i]][t] * table[i][-1] for i in range(r)) for t in (0, 1)]
    return None if value[0] < 0 else value[1]


class ReferenceComplex:
    """The quotient of disks by a side-pairing on ``(disk, slot)`` keys.

    A slow, literal construction kept as the reference for
    ``complexes.SurfaceComplex``: vertices from a union-find over
    ``(disk, vertex)`` pairs (vertex j of a disk starts slot j), edges in
    slot order, boundary circles walked corner by corner, and the
    immersion, per-component chi and boundary-invariant reports on top.
    """

    def __init__(self, disks, pairs):
        self.disks = tuple(disks)
        self.letters = [d.boundary_letters() for d in self.disks]
        self.sizes = [d.size for d in self.disks]
        self.partner = {}
        for a, b in pairs:
            a, b = tuple(a), tuple(b)
            self.partner[a], self.partner[b] = b, a
        names = [(i, v) for i in range(len(self.disks)) for v in range(self.sizes[i])]
        parent = {x: x for x in names}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        for a, b in pairs:
            (ia, ja), (ib, jb) = a, b
            na, nb = (ia, (ja + 1) % self.sizes[ia]), (ib, (jb + 1) % self.sizes[ib])
            if (self.letter(a) > 0) == (self.letter(b) > 0):
                union((ia, ja), (ib, jb))
                union(na, nb)
            else:
                union((ia, ja), nb)
                union(na, (ib, jb))
        roots = sorted({find(x) for x in names})
        number = {r: k for k, r in enumerate(roots)}
        self.vertex_of = {x: number[find(x)] for x in names}
        self.n_vertices = len(roots)
        self.edges = []
        for slot in names:
            other = self.partner.get(slot)
            if other is not None and other < slot:
                continue
            slots = (slot,) if other is None else (slot, other)
            self.edges.append((abs(self.letter(slot)),) + self.ends(slot) + (slots,))
        self.boundary = self._walk([x for x in names if x not in self.partner])
        self.closed = not self.boundary

    def letter(self, slot):
        return self.letters[slot[0]][slot[1]]

    def ends(self, slot):
        """(tail vertex, head vertex) of the labeled arrow on this slot."""
        i, j = slot
        start = self.vertex_of[(i, j)]
        end = self.vertex_of[(i, (j + 1) % self.sizes[i])]
        return (start, end) if self.letter(slot) > 0 else (end, start)

    def _walk(self, unpaired):
        # an end (slot, side) sits at the slot's first vertex in disk order
        # for side 0 and at its second for side 1
        def cross(slot, side):
            i, j = slot
            if side == 1:
                return (i, (j + 1) % self.sizes[i]), 0
            return (i, (j - 1) % self.sizes[i]), 1

        circles, visited = [], set()
        for start in unpaired:
            if start in visited:
                continue
            circle, slot, entry = [], start, 0
            while True:
                circle.append((slot, entry == 0))
                visited.add(slot)
                slot, side = cross(slot, 1 - entry)
                while slot in self.partner:
                    other = self.partner[slot]
                    if (self.letter(slot) > 0) != (self.letter(other) > 0):
                        side = 1 - side
                    slot, side = cross(other, side)
                entry = side
                if slot == start:
                    assert entry == 0
                    break
            circles.append(tuple(circle))
        return circles

    def check_immersion(self):
        """(ok, violations): violations (vertex, generator, "out"|"in", count)."""
        from collections import Counter

        outs = Counter((tail, label) for label, tail, _h, _s in self.edges)
        ins = Counter((head, label) for label, _t, head, _s in self.edges)
        violations = [(v, g, "out", c) for (v, g), c in sorted(outs.items()) if c > 1]
        violations += [(v, g, "in", c) for (v, g), c in sorted(ins.items()) if c > 1]
        return not violations, violations

    def component_euler_data(self):
        """Per component, by least disk: (disks, vertices, edges, chi)."""
        disks_at = {}
        for (i, _v), vid in self.vertex_of.items():
            disks_at.setdefault(vid, set()).add(i)
        comps, seen = [], set()
        for start in range(len(self.disks)):
            if start in seen:
                continue
            comp, stack = {start}, [start]
            while stack:
                i = stack.pop()
                for v in range(self.sizes[i]):
                    for k in disks_at[self.vertex_of[(i, v)]] - comp:
                        comp.add(k)
                        stack.append(k)
            seen |= comp
            comps.append(tuple(sorted(comp)))
        out = []
        for comp in comps:
            verts = {self.vertex_of[(i, v)] for i in comp for v in range(self.sizes[i])}
            n_edges = sum(1 for e in self.edges if e[3][0][0] in comp)
            out.append((comp, len(verts), n_edges, len(verts) - n_edges + len(comp)))
        return out

    def lambda_components(self, a_gen=1, b_gen=2):
        """(sign, slots, vertices, flags) per boundary circle, in a-arrow
        order; raises ``LambdaError`` where the b-side-pairing is not
        consistent."""
        from polyw.complexes import LambdaError

        for label, _t, _h, slots in self.edges:
            if len(slots) == 2 and label != b_gen:
                raise LambdaError("interior edge with label a%d; expected only a%d paired"
                                  % (label, b_gen))
            if len(slots) == 1 and label != a_gen:
                raise LambdaError("boundary edge with label a%d; expected only a%d free"
                                  % (label, a_gen))
        if self.closed:
            raise LambdaError("closed surface has no boundary invariant")
        b_out = {e[1] for e in self.edges if len(e[3]) == 2}
        b_in = {e[2] for e in self.edges if len(e[3]) == 2}
        out = []
        for circle in self.boundary:
            dirs = {forward == (self.letter(slot) > 0) for slot, forward in circle}
            if len(dirs) != 1:
                raise LambdaError("boundary circle with inconsistently oriented a-edges")
            steps = circle if dirs.pop() else tuple(reversed(circle))
            slots = tuple(slot for slot, _f in steps)
            verts = tuple(self.ends(slot)[0] for slot in slots)
            flags, sign = [], 0
            for v in verts:
                if v in b_out and v in b_in:
                    raise LambdaError("vertex %d meets both incoming and outgoing b-edges" % v)
                flags.append(v in b_out or v in b_in)
                if flags[-1]:
                    s = 1 if v in b_out else -1
                    if sign and s != sign:
                        raise LambdaError("mixed b-edge directions on one boundary circle")
                    sign = s
            if not any(flags):
                raise LambdaError("boundary circle meets no b-edges")
            out.append((sign, slots, verts, tuple(flags)))
        return out


def assert_matches_reference(S):
    """Assert that the complex S agrees exactly with ``ReferenceComplex``
    on the same disks and pairs: vertex ids, edges, boundary circles in
    order, immersion violations, chi per component, and the boundary
    invariant's circles with their terms and starts, or its
    ``LambdaError``.  Returns the reference lambda circles, or the error
    text."""
    from polyw.complexes import LambdaError, boundary_lambda, check_immersion, lambda_components
    from polyw.invariants import LambdaMultiset, LambdaTerm, partial_sums

    ref = ReferenceComplex(S.disks, S.pairing.pairs)
    assert S.n_vertices == ref.n_vertices
    assert {x: S.vertex_at(x) for x in ref.vertex_of} == ref.vertex_of
    assert [(e.label, e.tail, e.head, e.slots) for e in S.edges] == ref.edges
    assert S.n_edges == len(ref.edges)
    assert S.euler_characteristic() == ref.n_vertices - len(ref.edges) + len(S.disks)
    assert S.boundary == ref.boundary and S.closed == ref.closed
    assert check_immersion(S) == ref.check_immersion()
    assert S.component_euler_data() == ref.component_euler_data()

    def outcome(circles):
        try:
            return circles()
        except LambdaError as err:
            return "LambdaError: %s" % err

    want = outcome(ref.lambda_components)
    got = outcome(lambda: lambda_components(S))
    if isinstance(want, str):
        assert got == want
        assert outcome(lambda: boundary_lambda(S)) == want
        return want
    assert [(c.sign, c.slots, c.vertices, c.flags) for c in got] == want
    terms = []
    for sign, _slots, _verts, flags in want:
        marked = [k for k, f in enumerate(flags) if f]
        gaps = [(b - a) % len(flags) or len(flags) for a, b in zip(marked, marked[1:] + marked[:1])]
        terms.append(LambdaTerm(sign, tuple(gaps)))
    assert [c.term for c in got] == terms
    # each circle reads its canonical composition from the least such start
    for c, (_sign, _slots, _verts, flags) in zip(got, want):
        m = len(flags)
        sums = {s % m for s in partial_sums(c.term.composition)}
        assert c.start == next(r for r in range(m)
                               if all(flags[(s + r) % m] == (s in sums) for s in range(m)))
    assert boundary_lambda(S) == LambdaMultiset(tuple(terms))
    return want
