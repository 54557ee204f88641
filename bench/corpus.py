"""Seeded inputs for the benchmark's four workloads.

Everything here is plain Python on word text: the program under test only
ever sees the strings these functions return.  The same seed gives the
same operations, byte for byte, on any machine and Python >= 3.10
(``random.Random`` seeded with a string is stable across processes).

Every workload's words come from a pool drawn once from ``POOL_SEED``:
random words for ``search-r2``, ``search-r3`` and ``tools``, and words
inside fixed strata of the constructive theorems for ``ladder``.  The run
seed spells each pool word from a random rotation and shuffles the order
of the ops.  The program stores words in a canonical rotation, so the
seed changes the text it parses but not the work behind it.

Fresh words per seed would make the run's figures a sample of a few
dozen words.  For the random pools that makes the share of timed-out
searches a binomial sample whose spread is wider than any useful
regression bound.  In the ladder, one draw of a 12-factor isolated-b
word took 1.1 s and another 2.1 s, and the ladder's throughput rests on
three such ops per pass.  Relabeling the generators per seed would keep
every verdict but not the cost: the search explores a labeling-dependent
tree, and six labelings of one rank-3 length-6 word took from 24,405 to
51,806 nodes to exhaust.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

POOL_SEED = 7

# Bounds every `check` op runs at; fixed so the verdict mix is comparable
# across commits (the Baseline in ROADMAP.md uses the same bounds).
SEARCH_ARGS = ("--max-disks", "2", "--powers", "2", "--time-budget", "2", "--jobs", "1")

# The orbit enumeration of a random rank-3 length-12 word costs about 4 ms
# per orbit member and orbits reach several thousand words (over 20 s).
# The cap bounds one `diskbusting` op the way the time budget bounds a
# search; an op over the cap ends "inconclusive".
ORBIT_CAP = 256

STATS_LENGTH = 200
STATS_SAMPLES = 500
STATS_OPS = 4  # per pass of `tools`

# Pool sizes: one pass takes about 27 s (search-r2, where 12 to 14 searches
# use their whole 2 s budget), 12 s (search-r3) and 12 to 17 s (tools) on
# a 2-core x86 machine at the parent commit.
R2_POOL = ((8, 8), (12, 16))  # (word length, words)
R3_POOL = ((6, 31),)
TOOLS_POOL = ((12, 36),)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``polyw <argv...>``.

    ``family`` names the generator stratum; ``expect`` is the known status
    of a paper example (None when the paper gives none).
    """

    argv: Tuple[str, ...]
    family: str
    expect: Optional[str] = None

    @property
    def kind(self):
        return self.argv[0]


# --- word text ----------------------------------------------------------------


def letters_text(letters):
    """Spell signed generator indices as 'aBc' text."""
    return "".join(chr(96 + x) if x > 0 else chr(64 - x) for x in letters)


def syllables_text(parts):
    """Spell (generator, exponent) syllables as 'a^3 b^-2' text."""
    return " ".join("%s^%d" % (chr(96 + g), e) for g, e in parts)


def random_cyclic_word(rng, rank, length):
    """A cyclically reduced word that uses every generator of the rank."""
    alphabet = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    while True:
        letters = [rng.choice(alphabet)]
        while len(letters) < length:
            x = rng.choice(alphabet)
            if x != -letters[-1]:
                letters.append(x)
        if letters[0] != -letters[-1] and len({abs(x) for x in letters}) == rank:
            return tuple(letters)


def respell(rng, letters):
    """The same cyclic word, spelled from a random rotation."""
    r = rng.randrange(len(letters))
    return letters[r:] + letters[:r]


def respell_text(rng, text):
    """The same cyclic word, from a random rotation of its space-separated
    pieces (syllables such as 'a^3', or conjugates such as '(a^2)^b')."""
    return " ".join(respell(rng, text.split(" ")))


def draw_pool(spec, rank, salt):
    """The fixed pool: ``spec`` lists (length, count) strata."""
    rng = random.Random("%d:%s" % (POOL_SEED, salt))
    return [
        (length, random_cyclic_word(rng, rank, length))
        for length, count in spec
        for _ in range(count)
    ]


def _pool_ops(seed, pass_index, salt, spec, rank, make_op):
    rng = random.Random("%d:%s:%d" % (seed, salt, pass_index))
    ops = [make_op(length, letters_text(respell(rng, w)))
           for length, w in draw_pool(spec, rank, salt)]
    rng.shuffle(ops)
    return ops


# --- ladder: words inside a constructive theorem's hypothesis ------------------

PAPER_EXAMPLES = (
    ("a^6 b^-3 c^5 b^4 c^-7", "polygonal"),  # T_3 cycle gluing
    ("a^3 b^2 a^-2 b^-3", "polygonal"),  # rank 2, no isolated generator
    ("a^2 (a^3)^b", "polygonal"),  # isolated b
    ("a (a^2)^b", "polygonal"),  # BS(1,2) relator, height one
    ("a^3 (a)^b", "polygonal"),  # height one with the run families swapped
    ("a^2 (a^-1)^b a a^b", "polygonal"),  # the one-disk figure word
    ("a b a b^2 a b^3", "not-polygonal"),  # follower obstruction
    # Simple height-one with p=10, q=11, p'=q'=1, so polygonal by the
    # height-one theorem; its boundary invariant has 4020 lambda terms,
    # over today's cap of 2048 (ROADMAP open item 1).
    ("a^2 (a^3)^b a^3 (a^2)^b a (a^5)^b a^4 (a)^b", "polygonal"),
)

# The ladder's strata: (generator, size, words per pass).  T_3 words are
# sized in syllables, isolated-b words in factors, height-one words in
# factor pairs.  Size bounds and why:
# * T_3 up to 600 syllables (about 2000 letters): tn_membership refuses
#   more than 512 pairs (one per syllable), so the 600 stratum fails today.
#   Eight 144-syllable words hold the ladder's median and six 600-syllable
#   words its tail (the 11th slowest of 43 ops, with eight slower strata
#   above them), so each quantile measures one word size instead of
#   jumping between strata from run to run.
# * isolated-b up to 12 factors: the circle-identification search tries up
#   to 4^(factors/2) gluings; at 12 factors an op takes 1-2 s, at 16 about
#   37 s, longer than a whole pass.
# * height-one up to 16 factor pairs, q-runs 1 or 2: the construction
#   builds lcm(q-runs) * d * P-sized disks, and one 8-factor word with
#   q-runs {2,3,5,6,7,9} exhausted 8 GB (an open defect of the
#   construction, not an excluded input).  Most 16-pair words exceed
#   today's 2048-term cap on the boundary invariant.
LADDER = (
    ("tn", 12, 2), ("tn", 48, 2), ("tn", 144, 8), ("tn", 288, 1), ("tn", 480, 1),
    ("tn", 600, 6),
    ("isolated-b", 2, 2), ("isolated-b", 4, 2), ("isolated-b", 8, 1), ("isolated-b", 12, 1),
    ("height-one", 1, 2), ("height-one", 2, 2), ("height-one", 4, 2), ("height-one", 8, 1),
    ("height-one", 16, 2),
)


def tn_blocks(syllables):
    """The stratum's generator cycles: signed generator blocks (a, x[, y])
    with {x, y} within {b, c}, drawn once from a fixed seed.

    rho of the word is the sum of these cycles whatever their order and
    exponent sizes, so fixing them fixes the cost of tn_membership, whose
    backtracking takes 0.3 to over 12 s on random 480-pair elements.
    """
    rng = random.Random("%d:tn:%d" % (POOL_SEED, syllables))
    blocks = []
    while sum(map(len, blocks)) < syllables:
        room = syllables - sum(map(len, blocks))
        size = room if room <= 3 else 2 if room == 4 else rng.choice((2, 3))
        others = [2, 3]
        rng.shuffle(others)
        blocks.append((1,) + tuple(rng.choice((1, -1)) * g for g in others[: size - 1]))
    if {abs(g) for block in blocks for g in block} != {1, 2, 3}:
        blocks[0] = (1, 5 - blocks[0][1] if blocks[0][1] > 0 else -5 - blocks[0][1])
    return blocks


def tn_word(rng, syllables):
    """A rank-3 word with no isolated generator whose rho lies in T_3.

    Every block starts with a positive a-syllable, so the junction into the
    next block closes the block's own generator cycle and rho is a sum of
    cycles.  ``rng`` orders the blocks and deals the exponents 2, 3 and 4
    in equal shares, so every word of a stratum has the same length and
    costs about the same to parse and to reject at a cap.
    """
    blocks = tn_blocks(syllables)
    rng.shuffle(blocks)
    sizes = [2 + k % 3 for k in range(syllables)]
    rng.shuffle(sizes)
    signs = [(abs(g), 1 if g > 0 else -1) for block in blocks for g in block]
    return syllables_text([(g, sign * size) for (g, sign), size in zip(signs, sizes)])


def isolated_b_word(rng, factors):
    """prod a^{p_i} b^{q_i}, |p_i| in 2..5, q_i = +-1, sign sum zero."""
    ps = [rng.choice((1, -1)) * rng.randint(2, 5) for _ in range(factors)]
    s = [1 if p > 0 else -1 for p in ps]
    terms = [s[i] + s[(i + 1) % factors] for i in range(factors)]
    live = [i for i in range(factors) if terms[i]]
    rng.shuffle(live)
    qs = [rng.choice((1, -1)) for _ in range(factors)]
    for k, i in enumerate(live):  # half the live terms count +2, half -2
        want = 1 if k < len(live) // 2 else -1
        qs[i] = want * (1 if terms[i] > 0 else -1)
    return syllables_text([part for p, q in zip(ps, qs) for part in ((1, p), (2, q))])


def height_one_runs(factors):
    """The stratum's multisets of p-runs (1..3) and q-runs (1..2): the first
    draw from a fixed seed with pp' <= q^2 and qq' <= p^2.

    The construction's size (disk count, boundary terms, memory) depends on
    these multisets only, not on their order, so fixing them fixes each
    op's cost and fate while the run seed orders the runs.
    """
    rng = random.Random("%d:height-one:%d" % (POOL_SEED, factors))
    while True:
        ps = [rng.randint(1, 3) for _ in range(factors)]
        qs = [rng.randint(1, 2) for _ in range(factors)]
        p, q = sum(ps), sum(qs)
        if p * ps.count(1) <= q * q and q * qs.count(1) <= p * p:
            return ps, qs


def height_one_word(rng, factors):
    """prod a^{p_i} (a^{q_i})^b with the stratum's runs in a random order
    and random uniform signs."""
    ps, qs = height_one_runs(factors)
    rng.shuffle(ps)
    rng.shuffle(qs)
    sp, sq = rng.choice((1, -1)), rng.choice((1, -1))
    return " ".join("a^%d (a^%d)^b" % (sp * a, sq * b) for a, b in zip(ps, qs))


GENERATORS = {"tn": tn_word, "isolated-b": isolated_b_word, "height-one": height_one_word}


def ladder_pool():
    """The ladder's fixed words: (family, text) in ``LADDER`` order."""
    rng = random.Random("%d:ladder" % POOL_SEED)
    return [("%s-%d" % (family, size), GENERATORS[family](rng, size))
            for family, size, count in LADDER for _ in range(count)]


def ladder_ops(seed, pass_index=0):
    rng = random.Random("%d:ladder:%d" % (seed, pass_index))
    ops = [Op(("check", text) + SEARCH_ARGS, "paper", expect)
           for text, expect in PAPER_EXAMPLES]
    ops += [Op(("check", respell_text(rng, text)) + SEARCH_ARGS, family)
            for family, text in ladder_pool()]
    rng.shuffle(ops)
    return ops


# --- the pooled workloads ------------------------------------------------------


def _check_op(family):
    return lambda length, text: Op(("check", text) + SEARCH_ARGS, "%s-len%d" % (family, length))


def _diskbusting_op(length, text):
    return Op(("diskbusting", text, "--orbit-cap", str(ORBIT_CAP)), "r3-len%d" % length)


def _stats_ops(seed, pass_index):
    return [Op(("stats", "--length", str(STATS_LENGTH), "--samples", str(STATS_SAMPLES),
                "--seed", str(seed * 1000 + pass_index * STATS_OPS + k), "--format", "json"),
               "stats")
            for k in range(STATS_OPS)]


def interleave(ops, extra):
    """``ops`` with ``extra`` spread evenly among them."""
    out = []
    for k, op in enumerate(ops):
        out += extra[k * len(extra) // len(ops):(k + 1) * len(extra) // len(ops)]
        out.append(op)
    return out


def search_r2_ops(seed, pass_index=0):
    return _pool_ops(seed, pass_index, "search-r2", R2_POOL, 2, _check_op("r2"))


def search_r3_ops(seed, pass_index=0):
    return _pool_ops(seed, pass_index, "search-r3", R3_POOL, 3, _check_op("r3"))


def tools_ops(seed, pass_index=0):
    ops = _pool_ops(seed, pass_index, "tools", TOOLS_POOL, 3, _diskbusting_op)
    return interleave(ops, _stats_ops(seed, pass_index))


WORKLOADS = {
    "ladder": ladder_ops,
    "search-r2": search_r2_ops,
    "search-r3": search_r3_ops,
    "tools": tools_ops,
}
