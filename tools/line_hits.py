"""The lines of ``src/polyw`` that no run reaches, by a line-hit trace.

Runs pass 0 of the benchmark's four workloads at seeds 1 and 2 (276 ops,
read from ``bench/corpus.py``) through ``polyw.cli.main`` under
``sys.settrace``; with ``--tests`` it then runs the tier-1 suite in this
process too (the children of subprocess tests are not traced).  It prints
each executable line of ``src/polyw`` that no run hit, as ``path:line``,
then the counts.  A line is executable when an instruction of the code
compiled from its file maps to it (``co_lines``).  A printed line is a
candidate for removal, not a verdict: see ROADMAP aim 2.  If the suite
does not pass, pytest's output and exit status come first, and the tool
exits with that status.

    python3 tools/line_hits.py [--tests]
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polyw"
SEEDS = (1, 2)


def executable_lines(path):
    """Every line that an instruction compiled from ``path`` maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


class Hits:
    """A ``sys.settrace`` hook that records every (file, line) of
    ``src/polyw`` run, and traces no other frame line by line."""

    def __init__(self):
        self.hit = set()
        self.prefix = str(SRC) + os.sep

    def call(self, frame, _event, _arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        self.hit.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line

    def line(self, frame, event, _arg):
        if event == "line":
            self.hit.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line

    def __enter__(self):
        threading.settrace(self.call)
        sys.settrace(self.call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def run_workloads():
    """Pass 0 of every workload at each seed, output discarded."""
    import corpus
    from polyw import cli

    for seed in SEEDS:
        for make_ops in corpus.WORKLOADS.values():
            for op in make_ops(seed, 0):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    try:
                        cli.main(list(op.argv))
                    except SystemExit:
                        pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true",
                        help="also run the tier-1 suite in this process")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    status = 0
    with Hits() as hits:  # set before polyw is imported, so its module lines count
        run_workloads()
        if args.tests:
            import pytest

            os.chdir(ROOT)
            log = io.StringIO()
            with redirect_stdout(log):
                status = int(pytest.main(["-q", "-p", "no:cacheprovider"]))
    if status:
        # a test that fails or does not collect leaves the lines it would run unhit
        sys.stdout.write(log.getvalue())
        print("pytest exited with %d: the counts below miss what its failed tests run"
              % status)
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        unhit = sorted(line for line in lines if (str(path), line) not in hits.hit)
        total, missed = total + len(lines), missed + len(unhit)
        for line in unhit:
            print("%s:%d" % (path.relative_to(ROOT), line))
    print("%d of %d executable lines not hit" % (missed, total))
    return status


if __name__ == "__main__":
    sys.exit(main())
