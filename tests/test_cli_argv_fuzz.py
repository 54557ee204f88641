"""Generated command lines for every subcommand, run through ``cli.main`` in
this process: word texts with exponents, nesting, conjugation and stray
characters, ranks below one, NaN and negative budgets, bad sizes and
malformed certificate files.

Every run must end in ``SystemExit`` with a code 0-3; any other exception
fails the test.  Each search is bounded by a short budget, and the words
use three generators at most, so no run is long.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from polyw import cli

letters = st.sampled_from("abcABC")
exponents = st.integers(-3, 3).filter(bool).map(str)
stray = st.sampled_from(["", " ", "(", ")", "^", "^^", "^0", "x", "1", "-", "é", "\t"])


def _term(atoms):
    atom = st.one_of(letters, atoms.map(lambda w: "(%s)" % w))
    power = st.one_of(st.just(""), exponents.map("^".__add__), letters.map("^".__add__))
    return st.tuples(atom, power).map("".join)


words = st.recursive(
    letters,
    lambda atoms: st.lists(_term(atoms), min_size=1, max_size=4).map(" ".join),
    max_leaves=8,
)
texts = st.one_of(words, st.tuples(words, stray, words).map("".join), stray)
ranks = st.one_of(st.just(()), st.sampled_from(["-1", "0", "1", "2", "3", "30"]).map(
    lambda r: ("--rank", r)))


def _options(pairs):
    """Each option, left out or given one of its values."""
    return st.tuples(*[
        st.one_of(st.just(()), st.sampled_from(values).map(lambda v, f=flag: (f, v)))
        for flag, values in pairs
    ]).map(lambda chosen: sum(chosen, ()))


check_options = _options([
    ("--strategy", ["auto", "tn", "isolated-b", "height-one", "search"]),
    ("--max-disks", ["-1", "0", "1", "2"]),
    ("--max-edges", ["-4", "0", "3", "40"]),
    ("--powers", ["0", "1", "2"]),
])
# a check always runs under a budget: a short one, or one that is refused
budgets = st.one_of(st.just("0.05"), st.sampled_from(["0", "-1", "-0.5", "nan", "-inf"])).map(
    lambda b: ("--time-budget=" + b,))
stats_options = _options([
    ("--length", ["-1", "0", "1", "2", "9"]),
    ("--samples", ["-1", "0", "1", "3"]),
    ("--seed", ["-5", "0", "7"]),
    ("--format", ["csv", "json"]),
])

VERDICT = {"chi": 0, "m": 1, "vertices": 1, "immersion": True, "closed": True,
           "polygonal": True}
CERTIFICATES = {
    "torus.json": {"word": "abAB", "rank": 2, "disks": [{"power": 1}],
                   "pairing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]], "verdict": VERDICT},
    "partial.json": {"word": "abAB", "rank": 2, "disks": [{"power": 1}],
                     "pairing": [[[0, 0], [0, 2]]], "verdict": VERDICT},
    "oversized.json": {"word": "abAB", "rank": 2, "disks": [{"power": 250001}],
                       "pairing": [], "verdict": VERDICT},
    "declarative.json": {"word": "abab", "rank": 2, "disks": [], "pairing": None,
                         "verdict": VERDICT, "declarative": {"reason": "proper power"}},
    "no-verdict.json": {"word": "abAB", "rank": 2, "disks": [{"power": 1}]},
    "bad-u.json": {"word": "abAB", "rank": 2, "disks": [{"power": 1}], "pairing": [],
                   "verdict": VERDICT, "u_certificate": [{"a": 1}]},
    "list.json": [1, 2],
}


@pytest.fixture(scope="module")
def certificate_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("certificates")
    for name, data in CERTIFICATES.items():
        (root / name).write_text(json.dumps(data))
    (root / "not-json.json").write_text("{")
    return root


def _argv(certificate_dir):
    paths = st.sampled_from(sorted(CERTIFICATES) + ["not-json.json", "missing.json"]).map(
        lambda name: str(certificate_dir / name))
    word_command = st.sampled_from(["rho", "minimize", "diskbusting"])
    return st.one_of(
        st.tuples(st.just("check"), texts, ranks, check_options, budgets),
        st.tuples(word_command, texts, ranks),
        st.tuples(st.just("stats"), stats_options),
        st.tuples(st.just("cover"), paths),
        st.tuples(st.just("render"), paths, st.sampled_from([(), ("--cover",)])),
    ).map(lambda parts: [x for p in parts for x in ((p,) if isinstance(p, str) else p)])


def test_every_command_line_exits_with_a_stable_code(certificate_dir):
    @settings(max_examples=300, deadline=None)
    @given(_argv(certificate_dir))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code in (0, 1, 2, 3), (argv, err.getvalue())

    run()
