"""Monte Carlo study of random positive height-one words.

A uniform positive word x of length N over {a, b} is pushed forward by
a -> a, b -> a^b; the resulting word is simple height-one, and its
run-structure statistics decide the sufficient polygonality inequality
pp' <= q^2 and qq' <= p^2.  Sampling is counter-based (one Philox stream
per sample index), so a sample depends only on the seed and its index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.random import Generator, Philox

RNG_ALGORITHM = "numpy-philox4x64"


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
    def condition_p(self):
        """pp' <= q^2"""
        return self.p * self.p_prime <= self.q ** 2

    @property
    def condition_q(self):
        """qq' <= p^2"""
        return self.q * self.q_prime <= self.p ** 2

    @property
    def condition(self):
        return self.condition_p and self.condition_q

    @property
    def fail_q(self):
        """q^2 <= pp': the first inequality is (weakly) violated."""
        return self.q ** 2 <= self.p * self.p_prime

    @property
    def fail_p(self):
        """p^2 <= qq'."""
        return self.p ** 2 <= self.q * self.q_prime


def stats_of_bits(bits) -> SampleStats:
    """Statistics of the positive word with 0 = a, 1 = b."""
    bits = np.asarray(bits, dtype=np.int8)
    n = int(bits.size)
    if n < 2:
        raise ValueError("need length >= 2")
    s = 1 + int(np.count_nonzero(np.diff(bits)))
    p = int(np.count_nonzero(bits == 0))
    q = n - p
    word = "".join("a" if b == 0 else "b" for b in bits)
    if p == 0 or q == 0:
        return SampleStats(n, word, p, q, 0, 0, 0.5, s, True)
    # cyclic runs: merge the wrap-around run
    change = np.flatnonzero(np.diff(bits))
    starts = np.concatenate(([0], change + 1))
    lengths = np.diff(np.concatenate((starts, [n])))
    letters = bits[starts]
    lengths = lengths.tolist()
    letters = letters.tolist()
    if len(lengths) > 1 and letters[0] == letters[-1]:
        lengths[0] += lengths.pop()
        letters.pop()
    a_runs = [c for c, b in zip(lengths, letters) if b == 0]
    b_runs = [c for c, b in zip(lengths, letters) if b == 1]
    assert len(a_runs) == len(b_runs)
    return SampleStats(
        n,
        word,
        p,
        q,
        sum(1 for c in a_runs if c == 1),
        sum(1 for c in b_runs if c == 1),
        float(len(a_runs)),
        s,
        False,
    )


def sample_height_one(n: int, rng: Generator) -> SampleStats:
    """One uniform positive word of length n, mapped to height one."""
    return stats_of_bits(rng.integers(0, 2, size=n))


def _sample_rng(seed: int, index: int) -> Generator:
    return Generator(Philox(key=seed, counter=[0, 0, 0, index]))


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

    def to_json(self, indent=2):
        return json.dumps(self.to_json_dict(), indent=indent)

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

    Sample i draws from its own Philox stream keyed by (seed, i).
    """
    if samples < 1:
        raise ValueError("samples >= 1")
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
