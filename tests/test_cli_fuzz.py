"""Every operation of one pass of each benchmark workload (``bench/corpus.py``,
fixed seed), run through ``cli.main`` in this process.

No exception may escape, every exit code is 0-3, every exit 1 carries a
cycle-cover dual that ``verify_dual`` accepts (or, from `diskbusting`, a
word whose minimized form misses a generator), and every certificate
verifies.
"""

import json
import sys
from pathlib import Path

import pytest

from polyw import cli
from polyw.complexes import PolygonalityCertificate
from polyw.cyclecover import verify_dual
from polyw.words import cyclic_word

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import corpus  # noqa: E402

SEED = 12
# ladder strata past today's resource caps: they end inconclusive, naming the cap
CAPPED = {"tn-600", "height-one-8", "height-one-16"}


def run(capsys, argv):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, json.loads(capsys.readouterr().out)


def check_evidence(op, data):
    if op.kind == "diskbusting":
        rank = cyclic_word(op.argv[1]).rank
        return len(cyclic_word(data["evidence"]["final"], rank).support()) < rank
    result = data["result"]
    return result["evidence"] == "cycle-cover-lp" and verify_dual(
        cyclic_word(op.argv[1]), result["dual"])


@pytest.mark.parametrize("workload", ["ladder", "search-r2", "search-r3", "tools"])
def test_every_benchmark_op_exits_with_a_checked_verdict(capsys, workload):
    for op in corpus.WORKLOADS[workload](SEED):
        code, data = run(capsys, op.argv)
        assert code in (0, 1, 2, 3), op
        if code == 1:
            assert check_evidence(op, data), op
        if op.kind == "check" and data["status"] == "polygonal":
            cert = PolygonalityCertificate.from_json_dict(data["result"])
            assert cert.polygonal and cert.verify(), op
            assert cert.word == cyclic_word(op.argv[1]), op
        if op.expect is not None:
            assert data["status"] == op.expect, op
        if op.family in CAPPED:
            assert (code, data["status"]) == (2, "inconclusive"), op
            assert "> cap" in data["result"]["reason"], op
