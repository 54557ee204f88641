"""Monte Carlo study of random positive height-one words.

A uniform positive word x of length N over {a, b} is pushed forward by
a -> a, b -> a^b; the resulting word is simple height-one, and its
run-structure statistics decide the sufficient polygonality inequality
pp' <= q^2 and qq' <= p^2.  Sample i draws its N bits from its own
Mersenne Twister, seeded with the string "seed:i", so a sample depends
only on the seed and its index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .invariants import height_one_condition

RNG_ALGORITHM = "python-mt19937 keyed by 'seed:index'"

_LETTERS = b"a" + b"b" * 255  # byte 0 -> a, any other -> b
_DIGITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class SampleStats:
    """Run statistics of one sampled word.

    ``l`` follows the half convention for the degenerate all-a / all-b
    words, flagged by ``degenerate``.
    """

    n: int
    word: str
    p: int
    q: int
    p_prime: int
    q_prime: int
    l: float
    s: int
    degenerate: bool

    @property
    def condition(self):
        return height_one_condition(self.p, self.q, self.p_prime, self.q_prime)

    @property
    def fail_q(self):
        """q^2 <= pp': the first inequality is (weakly) violated."""
        return self.q ** 2 <= self.p * self.p_prime

    @property
    def fail_p(self):
        """p^2 <= qq'."""
        return self.p ** 2 <= self.q * self.q_prime


def stats_of_bits(bits) -> SampleStats:
    """Statistics of the positive word with 0 = a, 1 = b; ``bits`` is a
    list of 0/1 or a bytes object."""
    word = bytes(bits).translate(_LETTERS).decode()
    n = len(word)
    if n < 2:
        raise ValueError("need length >= 2")
    s = 1 + word.count("ab") + word.count("ba")
    p = word.count("a")
    q = n - p
    if p == 0 or q == 0:
        return SampleStats(n, word, p, q, 0, 0, 0.5, s, True)
    # cyclic runs: rotate to the first letter unlike the last, so no run wraps
    k = word.index("b" if word[-1] == "a" else "a")
    cyclic = word[k:] + word[:k]
    a_runs = cyclic.split("b")
    return SampleStats(
        n,
        word,
        p,
        q,
        a_runs.count("a"),
        cyclic.split("a").count("b"),
        float(len(a_runs) - a_runs.count("")),
        s,
        False,
    )


def sample_height_one(n: int, rng: random.Random) -> SampleStats:
    """One uniform positive word of length n, mapped to height one."""
    digits = format(rng.getrandbits(n), "0%db" % n)
    return stats_of_bits(digits.encode().translate(_DIGITS))


def _sample_rng(seed: int, index: int) -> random.Random:
    return random.Random("%d:%d" % (seed, index))


@dataclass(frozen=True)
class TrialReport:
    n: int
    samples: int
    seed: int
    p_condition: float
    p_fail_q: float
    p_fail_p: float
    mean_runs: float  # mean of s - 1
    var_runs: float
    degenerate: int
    algorithm: str = RNG_ALGORITHM

    def to_json_dict(self):
        return {
            "N": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "p_condition": self.p_condition,
            "p_fail_q": self.p_fail_q,
            "p_fail_p": self.p_fail_p,
            "mean_runs": self.mean_runs,
            "var_runs": self.var_runs,
            "degenerate": self.degenerate,
            "rng": self.algorithm,
        }

    @staticmethod
    def csv_header():
        return "N,samples,seed,p_condition,p_fail_q,p_fail_p,mean_runs,var_runs"

    def to_csv_row(self):
        return "%d,%d,%d,%.6f,%.6f,%.6f,%.6f,%.6f" % (
            self.n,
            self.samples,
            self.seed,
            self.p_condition,
            self.p_fail_q,
            self.p_fail_p,
            self.mean_runs,
            self.var_runs,
        )


def run_trials(n: int, samples: int, seed: int) -> TrialReport:
    """Aggregate condition frequencies over counter-indexed samples.

    Sample i draws from its own generator, keyed by (seed, i).
    """
    if n < 2:
        raise ValueError("length must be at least 2")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    cond = fail_q = fail_p = degenerate = 0
    total = 0
    total_sq = 0
    for i in range(samples):
        st = sample_height_one(n, _sample_rng(seed, i))
        cond += st.condition
        fail_q += st.fail_q
        fail_p += st.fail_p
        degenerate += st.degenerate
        total += st.s - 1
        total_sq += (st.s - 1) ** 2
    mean = total / samples
    var = total_sq / samples - mean ** 2
    return TrialReport(
        n,
        samples,
        seed,
        cond / samples,
        fail_q / samples,
        fail_p / samples,
        mean,
        var,
        degenerate,
    )
