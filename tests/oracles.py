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
