"""Hostile command lines, each run one after another by a child interpreter
whose address space is limited to 600 MB: huge exponents and ranks, deep
nesting, search bounds far past the defaults, height-one blocks past the
slot bound and certificate files that never end.

Every `check` runs under `--time-budget 1`.  Each child must exit 0-3
within its timeout and print no traceback.
"""

import os
import subprocess
import sys

import pytest

import polyw

pytest.importorskip("resource")

LIMIT = 600 << 20
CHILD = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
         "from polyw.cli import main; main(sys.argv[1:])" % (LIMIT, LIMIT))
BUDGET = ("--time-budget", "1")
HUGE_SEARCH = ("--strategy", "search", "--max-edges", "1000000000000")

ARGV = [
    ("check", "a^999999", *BUDGET),
    ("check", "(ab)^30000 aB", *BUDGET),
    # a search of 60,002 slots and more: the partner lists must stay linear
    ("check", "(ab)^30000 aB", "--strategy", "search", *BUDGET),
    ("check", "(a^2 b)^5000 a^2 B", *BUDGET),
    ("check", "a", "--rank", "1000000", *BUDGET),
    ("check", "a^2 b^2 c^2", "--rank", "100000", *BUDGET),
    ("check", "abcdefghijklmnopqrstuvwxyz", *BUDGET),
    ("check", "((a^1000)^1000)^1000", *BUDGET),
    ("check", "a^" + "9" * 5000, *BUDGET),
    ("check", "(" * 5000 + "a" + ")" * 5000, *BUDGET),
    # height-one blocks of 4 and 25 million slots
    ("check", "a (a^999)^b a^999 (a)^b", *BUDGET),
    ("check", "a (a^2)^b a^50 (a^49)^b", "--strategy", "height-one", *BUDGET),
    # astronomically many disk configurations, and groups of 10! and more
    ("check", "aabbABAb", *HUGE_SEARCH, "--max-disks", "1000", "--powers", "1000", *BUDGET),
    ("check", "ab", *HUGE_SEARCH, "--max-disks", "1000", "--powers", "1", *BUDGET),
    ("check", "abAB", "--powers", "1000000000", *BUDGET),
    ("rho", "(a^2 b^2 c^2)^100000"),
    ("minimize", "abcdefABCDEF", "--rank", "1000000"),
    ("diskbusting", "abcdefgABCDEFG"),
    ("stats", "--length", "1000000", "--samples", "1"),
    # past the word-length bound: refused before a word is drawn
    ("stats", "--length", "30000000", "--samples", "1"),
    ("cover", "/dev/zero"),
    ("render", "/dev/zero", "--cover"),
    # 12,276 moves on a 6,000-letter word: the work cap stops it
    ("minimize", "(abcABC)^1000", "--rank", "6"),
]


@pytest.mark.parametrize("argv", ARGV, ids=range(len(ARGV)))
def test_hostile_command_line_exits_cleanly_under_a_memory_limit(argv):
    if argv[0] in ("cover", "render") and not os.path.exists(argv[1]):
        pytest.skip("no %s on this system" % argv[1])
    root = os.path.dirname(os.path.dirname(polyw.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode in (0, 1, 2, 3), proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
