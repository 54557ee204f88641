"""Hashes of what ``polyw`` writes for a fixed set of command lines.

Runs each argv through ``polyw.cli.main`` in this process, from this
checkout's ``src/``, and prints one line per argv: the first 16 hex
digits of the sha256 of (argv, exit code, stdout, stderr), then the argv.
The argvs are pass 0 of the benchmark's four workloads at each of
``--seeds`` (read from ``bench/corpus.py``), then a fixed list: every
command's ``--help`` at ``COLUMNS=80``, the resource caps, ``check
--strategy search`` on six words, the usage errors, and ``cover`` and
``render`` of certificates written to a temporary directory, some of
them malformed.  The directory's path reads ``<tmp>`` in what is hashed
and printed.  Run it in two checkouts and compare:

    python3 tools/same_outputs.py --seeds 1 2 > before.txt
    python3 tools/same_outputs.py --seeds 1 2 > after.txt   # the other checkout
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("check", "rho", "minimize", "diskbusting", "cover", "stats", "render")
TMP = "<tmp>"
# the torus, then its certificate with a T_n or U part that does not load
TORUS = {"word": "abAB", "rank": 2, "disks": [{"power": 1}],
         "pairing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]],
         "verdict": {"chi": 0, "m": 1, "vertices": 1, "immersion": True, "closed": True,
                     "polygonal": True}}
BAD_PARTS = [
    ("tn_certificate", {"rank": 2}), ("tn_certificate", {"rank": 2, "cycles": [[1]]}),
    ("tn_certificate", {"rank": 2, "cycles": 5}), ("tn_certificate", "x"),
    ("u_certificate", 7), ("u_certificate", [{"a": {"sign": 1}}]),
    ("u_certificate", [{"a": {"sign": 2, "composition": [1]}}]),
    ("u_certificate", [{"a": {"sign": 1, "composition": [1]},
                        "b": {"sign": -1, "composition": [1]}}]),
]

# The cases no workload reaches; TMP is the temporary directory, where the
# `check ... --out` lines write the certificates the later lines read.
FIXED = [
    ("--help",), *((name, "--help") for name in COMMANDS),
    # resource caps: T_n pairs, U terms, Whitehead rank and work
    ("rho", "(a^2 b^2 c^2)^200"),
    ("check", "a^1 (a^1)^b a^1 (a^1)^b a^1 (a^1)^b a^3 (a^1)^b a^3 (a^2)^b a^2 (a^2)^b "
     "a^1 (a^1)^b a^3 (a^2)^b a^1 (a^2)^b a^2 (a^1)^b a^3 (a^1)^b a^2 (a^2)^b a^3 (a^1)^b "
     "a^3 (a^1)^b a^3 (a^1)^b a^2 (a^2)^b"),
    ("minimize", "abcdefgABCDEFG"), ("diskbusting", "abcdefgABCDEFG"),
    ("minimize", "(abcABC)^300", "--rank", "6"),
    # every outcome of the other commands
    ("rho", "a^6 b^-3 c^5 b^4 c^-7"), ("rho", "aCAB"),
    ("minimize", "a b a b^2 a b^3"), ("diskbusting", "abAB"), ("diskbusting", "a b^2 a b"),
    ("stats", "--length", "10", "--samples", "20", "--seed", "1"),
    ("stats", "--length", "10", "--samples", "20", "--seed", "1", "--format", "json"),
    # the search alone: three words that exhaust (their node counts), one it
    # certifies, then two rank-3 words that exhaust
    *(("check", word, "--strategy", "search")
      for word in ("abaBaBaBBBBB", "abbaBBBaBaBB", "aaababaB", "aabbABAb",
                   "AACbABBcBB", "acbcbcaC")),
    # usage errors: argparse's, then each of the program's
    (), ("frobnicate",), ("check",), ("check", "ab", "--strategy", "nope"),
    ("check", "ab", "--rank", "x"), ("stats", "--length", "10"),
    ("check", "a^"), ("check", "a", "--rank", "0"), ("rho", ""), ("minimize", "a)"),
    ("diskbusting", "ab("), ("check", "ab", "--max-disks", "0"),
    ("check", "ab", "--time-budget", "nan"),
    *((name, "ab", "--out", TMP + "/missing/x.json") for name in COMMANDS[:4]),
    ("stats", "--length", "10", "--samples", "1", "--out", TMP + "/missing/x.json"),
    ("cover", TMP + "/missing.json"), ("render", TMP + "/missing.json"),
    ("stats", "--length", "0", "--samples", "1"), ("stats", "--length", "10", "--samples", "0"),
    # certificates: written by `check`, then read back
    ("check", "a (a^2)^b", "--out", TMP + "/height-one.json"),
    ("check", "a b a^-1 b^-1", "--out", TMP + "/torus.json"),
    ("check", "a^6 b^-3 c^5 b^4 c^-7", "--out", TMP + "/tn.json"),
    ("check", "abab", "--out", TMP + "/proper-power.json"),
    ("check", "a b a b^2 a b^3", "--out", TMP + "/not-polygonal.json"),
    *((name, TMP + "/%s.json" % cert) + extra
      for cert in ("height-one", "torus", "tn", "proper-power", "not-polygonal")
      for name, extra in (("cover", ()), ("render", ()), ("render", ("--cover",)))),
    ("render", TMP + "/torus.json", "--out", TMP + "/torus.dot"),
    ("cover", TMP + "/torus.dot"),
    *(("cover", TMP + "/bad-%d.json" % k) for k in range(len(BAD_PARTS))),
]


def run(cli, argv):
    """(exit code, stdout, stderr) of ``polyw argv``; a crash reads as its
    exception in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "raised %s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), err.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    os.environ["COLUMNS"] = "80"
    import corpus
    from polyw import cli

    argvs = [op.argv for seed in args.seeds
             for make_ops in corpus.WORKLOADS.values() for op in make_ops(seed, 0)]
    with tempfile.TemporaryDirectory() as tmp:
        for k, (key, part) in enumerate(BAD_PARTS):
            Path(tmp, "bad-%d.json" % k).write_text(json.dumps(dict(TORUS, **{key: part})))
        for line in argvs + FIXED:
            real = [a.replace(TMP, tmp) for a in line]
            record = json.dumps([list(line), *run(cli, real)]).replace(tmp, TMP)
            digest = hashlib.sha256(record.encode()).hexdigest()[:16]
            print(digest, shlex.join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
