import json
import os
import subprocess
import sys

import pytest

import polyw
from polyw import cli, words
from polyw.cli import build_parser, check_polygonal
from polyw.complexes import PolygonalityCertificate
from polyw.cyclecover import verify_dual
from polyw.whitehead import all_second_kind_moves
from polyw.words import cyclic_word

# the child interpreter imports the same polyw as this test session
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(polyw.__file__))


def run_python(*args):
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_cli(*args):
    return run_python("-m", "polyw.cli", *args)


@pytest.mark.parametrize("text", [
    "a^6 b^-3 c^5 b^4 c^-7",  # certified by the tn rung
    "a^-3 (a^1)^b a^-3 (a^1)^b a^-1 (a^2)^b a^-2 (a^2)^b",  # by the height-one rung
    "(ab)^300 aB",  # every rung and the LP decline it, and the search times out
])
def test_check_reads_the_syllables_once(monkeypatch, text):
    read, real = [], words._read_syllables
    monkeypatch.setattr(words, "_read_syllables", lambda w: read.append(w) or real(w))
    w = cyclic_word(text)
    check_polygonal(w, bounds=cli.search.SearchBounds(time_budget=0.1))
    assert read == [w]


@pytest.mark.parametrize("text, rung", [
    ("a^3 (a)^b", "height-one"),  # read swapped, after the isolated-b rung declines
    ("a^2 b a^-2 b^-1", "isolated-b"),
])
def test_check_reads_the_a_runs_once(monkeypatch, text, rung):
    read, real = [], words._read_a_runs
    monkeypatch.setattr(words, "_read_a_runs", lambda w: read.append(w) or real(w))
    w = cyclic_word(text)
    verdict = check_polygonal(w)
    assert verdict.status == "polygonal"
    assert verdict.payload["construction"]["strategy"] == rung
    assert read == [w]


def test_check_polygonal_exit_zero(tmp_path):
    out = tmp_path / "cert.json"
    proc = run_cli("check", "a (a^2)^b", "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["status"] == "polygonal"
    assert data["result"]["verdict"]["polygonal"] is True


def test_check_still_accepts_jobs():
    # --jobs no longer reaches the search, but scripts that pass it still run
    proc = run_cli("check", "a (a^2)^b", "--jobs", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "polygonal"


def test_check_obstruction_exit_one():
    proc = run_cli("check", "a b a b^2 a b^3")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["status"] == "not-polygonal"
    assert data["result"]["evidence"] == "cycle-cover-lp"
    assert verify_dual(cyclic_word("a b a b^2 a b^3"), data["result"]["dual"])


def test_check_cycle_cover_lp_exit_one():
    proc = run_cli("check", "aabccc")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["status"] == "not-polygonal"
    assert data["result"]["evidence"] == "cycle-cover-lp"
    assert verify_dual(cyclic_word("aabccc"), data["result"]["dual"])


# Runs ``polyw`` on its arguments, then prints the modules it loaded that are
# neither in the standard library nor under ``polyw``.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
from polyw import cli
try:
    cli.main(sys.argv[1:])
except SystemExit as err:
    print("exit", err.code)
allowed = set(sys.stdlib_module_names) | {"polyw"}
print(sorted(m for m in set(sys.modules) - before if m.partition(".")[0] not in allowed))
"""


def test_check_imports_neither_scipy_nor_numpy():
    # scipy would add about 40 MB and half a second to every `polyw` run,
    # and numpy about 19 MB: `check` and `stats` load the standard library only
    for argv, code in [(["check", "aabccc"], 1),
                       (["stats", "--length", "30", "--samples", "20"], 0)]:
        proc = run_python("-c", IMPORT_PROBE, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["exit %d" % code, "[]"]


def test_check_inconclusive_exit_two():
    proc = run_cli("check", "a^2 b^2 c^3 b^-3", "--rank", "3", "--max-edges", "20")
    assert proc.returncode == 2
    data = json.loads(proc.stdout)
    assert data["status"] == "inconclusive"


def test_check_strategy_not_applicable_exit_two():
    proc = run_cli("check", "a^2 b^2 c^3 b^-3", "--strategy", "tn")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "not-applicable"
    for text, strategy, reason in [
        ("a^2 b^2 c^3 b^-3", "tn", "junction invariant is not in the cycle monoid"),
        # pp' = 24 > q^2 = 9
        ("a (a)^b a (a)^b a^10 (a)^b", "height-one", "inequality pp' <= q^2, qq' <= p^2 fails"),
    ]:
        verdict = check_polygonal(cyclic_word(text), strategy)
        assert (verdict.status, verdict.payload) == ("not-applicable", {"reason": reason})


def test_parse_error_exit_three():
    proc = run_cli("check", "a^")
    assert proc.returncode == 3
    proc = run_cli("check", "a c", "--rank", "2")
    assert proc.returncode == 3


def test_usage_error_exit_three():
    proc = run_cli("frobnicate")
    assert proc.returncode == 3


def test_check_has_no_f2_strategy(capsys):
    # the tn rung certifies the rank-2 words without isolated generators
    assert run_main("check", "a^3 b^2 a^-2 b^-3", "--strategy", "f2") == 3
    assert run_main("check", "a^3 b^2 a^-2 b^-3", "--strategy", "tn") == 0


@pytest.mark.parametrize("bound", [("--max-edges", "3"), ("--max-disks", "0"), ("--powers", "0")])
def test_bad_search_bound_exit_three(bound):
    proc = run_cli("check", "aabABB", *bound)
    assert proc.returncode == 3
    assert "bad search bounds" in proc.stderr and not proc.stdout


def test_rho_member_exit_codes():
    assert run_cli("rho", "a^6 b^-3 c^5 b^4 c^-7").returncode == 0
    assert run_cli("rho", "a^2 b^2 c^3 b^-3").returncode == 1


def test_rho_over_the_pair_cap_exit_two():
    # 600 syllables: 600 junction pairs, over the 512-pair cap
    proc = run_cli("rho", "a^2 b^2 c^2 " * 199 + "a^3 b^2 c^2")
    assert proc.returncode == 2
    data = json.loads(proc.stdout)
    assert data["status"] == "inconclusive"
    assert data["reason"] == "element has 600 pairs > cap 512"


def test_check_height_one_over_the_term_cap_exit_two():
    # an 8-pair height-one word of the benchmark's ladder: its boundary
    # invariant has 3960 terms
    word = ("a^3 (a^-1)^b a^3 (a^-1)^b a^3 (a^-1)^b a^1 (a^-1)^b "
            "a^2 (a^-2)^b a^1 (a^-2)^b a^3 (a^-2)^b a^2 (a^-1)^b")
    proc = run_cli("check", word, "--strategy", "height-one")
    assert proc.returncode == 2
    data = json.loads(proc.stdout)
    assert data["status"] == "inconclusive"
    assert data["result"] == {"reason": "multiset has 3960 terms > cap 2048"}


def test_check_paper_height_one_example_exit_zero():
    # p = 10, q = 11, p' = q' = 1: polygonal by the height-one theorem
    word = "a^2 (a^3)^b a^3 (a^2)^b a (a^5)^b a^4 (a)^b"
    proc = run_cli("check", word)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["status"] == "polygonal"
    cert = PolygonalityCertificate.from_json_dict(data["result"])
    assert cert.word == cyclic_word(word) and cert.verify()
    assert cert.construction["strategy"] == "height-one"


def test_minimize_output():
    proc = run_cli("minimize", "a b a b^2 a b^3")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["length"] == 5


def test_diskbusting_exit_codes():
    assert run_cli("diskbusting", "a (a^2)^b").returncode == 0
    assert run_cli("diskbusting", "a^2 b^2 c^3 b^-3").returncode == 1


def test_diskbusting_negative_carries_its_moves():
    proc = run_cli("diskbusting", "a b c^2 b^-1 a^-1 b a b c", "--orbit-cap", "256")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["diskbusting"] is False
    w = cyclic_word(data["word"])
    for move in data["evidence"]["moves"]:
        w = next(m for m in all_second_kind_moves(3) if str(m) == move).apply(w)
    assert str(w) == data["evidence"]["final"] and len(w.support()) < 3


def test_cover_and_render_roundtrip(tmp_path):
    cert_path = tmp_path / "cert.json"
    proc = run_cli(
        "check", "a^2 (a^-1)^b a a^b", "--strategy", "search",
        "--max-disks", "1", "--out", str(cert_path),
    )
    assert proc.returncode == 0
    proc = run_cli("cover", str(cert_path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["degree"] == 7 and report["chi_S0"] == -4
    proc = run_cli("render", str(cert_path))
    assert proc.returncode == 0 and proc.stdout.startswith("digraph")
    proc = run_cli("render", str(cert_path), "--cover")
    assert proc.returncode == 0 and "a2" in proc.stdout


def test_cover_rejects_declarative(tmp_path):
    cert_path = tmp_path / "pp.json"
    proc = run_cli("check", "abab", "--rank", "2", "--out", str(cert_path))
    assert proc.returncode == 0
    assert run_cli("cover", str(cert_path)).returncode == 3


def test_stats_csv_and_seed_env(tmp_path, monkeypatch):
    proc = run_cli("stats", "--length", "30", "--samples", "50", "--seed", "4")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("N,samples,seed")
    assert lines[1].split(",")[0] == "30"
    proc_json = run_cli(
        "stats", "--length", "30", "--samples", "50", "--seed", "4",
        "--format", "json",
    )
    data = json.loads(proc_json.stdout)
    assert data["rng"] == "python-mt19937 keyed by 'seed:index'"


@pytest.mark.parametrize("argv, reason", [
    (("--length", "1", "--samples", "5"), "length must be at least 2"),
    (("--length", "10", "--samples", "0"), "samples must be at least 1"),
    (("--length", "1000001", "--samples", "1"), "length must be at most 1000000"),
])
def test_stats_bad_size_exit_three(argv, reason):
    proc = run_cli("stats", *argv)
    assert proc.returncode == 3 and not proc.stdout
    assert proc.stderr.strip() == "bad stats arguments: " + reason


def test_stats_negative_seed_exit_zero():
    proc = run_cli("stats", "--length", "10", "--samples", "5", "--seed", "-1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("10,5,-1,")


def test_emitted_json_roundtrips_through_library(tmp_path):
    from polyw.complexes import PolygonalityCertificate

    cert_path = tmp_path / "cert.json"
    run_cli("check", "a (a^2)^b", "--out", str(cert_path))
    data = json.loads(cert_path.read_text())
    cert = PolygonalityCertificate.from_json_dict(data["result"])
    assert cert.verify()
    assert cert.word == cyclic_word("a (a^2)^b")


def test_check_polygonal_library_pipeline():
    verdict = check_polygonal(cyclic_word("a^2 b^-3 c^2"))
    assert verdict.status == "polygonal" and verdict.exit_code == 0
    verdict = check_polygonal(cyclic_word("ab"))
    assert verdict.status == "not-polygonal" and verdict.exit_code == 1


def run_main(*argv):
    """Exit code of ``polyw.cli.main`` called in this process."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code


MALFORMED = {
    "slot out of range": (
        {"word": "abAB", "rank": 2, "disks": [{"power": 1}], "pairing": [[[0, 0], [0, 9]]]},
        "error: slot (0, 9) out of range"),
    "power 0": (
        {"word": "abAB", "rank": 2, "disks": [{"power": 0}],
         "pairing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]]},
        "error: disk power must be nonzero"),
    "fractional slot": (
        {"word": "abAB", "rank": 2, "disks": [{"power": 1}], "pairing": [[[0, 1.5], [0, 3]]]},
        "cannot load certificate: disk powers and slot indices must be integers"),
    # two a-edges leave one vertex: no cover to complete (plain render draws it)
    "not immersed": (
        {"word": "a^2", "rank": 1, "disks": [{"power": 1}, {"power": 1}],
         "pairing": [[[0, 0], [1, 0]]]},
        "error: generator 1 map is not a partial injection"),
}


@pytest.mark.parametrize("case, command", [
    (case, command)
    for case in sorted(MALFORMED)
    for command in [("render",), ("render", "--cover"), ("cover",)]
    if (case, command) != ("not immersed", ("render",))
])
def test_malformed_certificate_exit_three(tmp_path, capsys, case, command):
    fields, message = MALFORMED[case]
    verdict = {"chi": 0, "m": 1, "vertices": 1, "immersion": True, "closed": True,
               "polygonal": True}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(fields, verdict=verdict)))
    assert run_main(command[0], str(path), *command[1:]) == 3
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("argv", [
    ("check", "a b A B"),
    ("rho", "a^2 b^-3"),
    ("stats", "--length", "10", "--samples", "5", "--seed", "1"),
])
def test_unwritable_out_exit_three(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.json"
    assert run_main(*argv, "--out", str(target)) == 3
    assert capsys.readouterr().err.startswith("error: ") and not target.exists()


@pytest.mark.parametrize("argv", [(), ("--strategy", "height-one")])
def test_check_construction_error_is_inconclusive(capsys, monkeypatch, argv):
    # a constructor failing its own certification is no verified negative
    def failing(w):
        raise cli.ConstructionError("gluing failed certification")

    monkeypatch.setattr(cli, "construct_height_one", failing)
    assert run_main("check", "a (a^2)^b", *argv) == 2
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data["status"] == "inconclusive"
    assert data["result"] == {"reason": "gluing failed certification"}
    assert "Traceback" not in err


def test_check_stdout_closed_early_keeps_the_exit_code():
    # the certificate is larger than a pipe buffer, so the write meets the
    # closed pipe
    path = os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "polyw.cli", "check",
         "a^2 (a^3)^b a^3 (a^2)^b a (a^5)^b a^4 (a)^b"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.read(10) == b'{"word": "'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err and "Error" not in err


@pytest.mark.parametrize("text", ["a^200000000", "((a^1000)^1000)^1000"])
def test_check_oversized_expansion_is_a_parse_error(text):
    # under a 600 MB address-space limit the literal expansion would die in
    # a MemoryError; the bound refuses it before anything is allocated
    limit = 600 << 20
    proc = run_python(
        "-c",
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (%d, %d)); "
        "from polyw.cli import main; main(sys.argv[1:])" % (limit, limit),
        "check", text,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("parse error: word expands past") and not proc.stdout


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_rank_below_one_is_a_parse_error(capsys, rank):
    assert run_main("check", "a", "--rank", rank) == 3
    out, err = capsys.readouterr()
    assert err == "parse error: rank must be >= 1\n" and not out


@pytest.mark.parametrize("budget", ["nan", "-1", "-inf"])
def test_bad_time_budget_exit_three(capsys, budget):
    # the tn rung settles this word, so a budget that got through would
    # never reach a search
    assert run_main("check", "a^2 b^2", "--time-budget=" + budget) == 3
    out, err = capsys.readouterr()
    assert err.startswith("bad search bounds: the time budget") and not out


TORUS_VERDICT = {"chi": 0, "m": 1, "vertices": 1, "immersion": True, "closed": True,
                 "polygonal": True, "components": 1}


def test_cover_requires_the_certificate_to_recertify(tmp_path, capsys):
    # one pair of the torus abAB dropped, the verdict kept: no closed surface
    path = tmp_path / "forged.json"
    path.write_text(json.dumps({"word": "abAB", "rank": 2, "disks": [{"power": 1}],
                                "pairing": [[[0, 0], [0, 2]]], "verdict": TORUS_VERDICT}))
    assert run_main("cover", str(path)) == 3
    out, err = capsys.readouterr()
    assert err == "error: the certificate does not re-certify as stated\n" and not out
    torus = {"word": "abAB", "rank": 2, "disks": [{"power": 1}],
             "pairing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]], "verdict": TORUS_VERDICT}
    # the true torus, one stated verdict entry made false: each is refused
    for key, value in [("closed", False), ("immersion", False), ("components", 7)]:
        path.write_text(json.dumps(dict(torus, verdict=dict(TORUS_VERDICT, **{key: value}))))
        assert run_main("cover", str(path)) == 3, key
        out, err = capsys.readouterr()
        assert err == "error: the certificate does not re-certify as stated\n" and not out
    path.write_text(json.dumps(torus))
    assert run_main("cover", str(path)) == 0
    capsys.readouterr()
    # "components" may go unstated
    verdict = {k: v for k, v in TORUS_VERDICT.items() if k != "components"}
    path.write_text(json.dumps(dict(torus, verdict=verdict)))
    assert run_main("cover", str(path)) == 0


@pytest.mark.parametrize("command", [("render",), ("render", "--cover"), ("cover",)])
def test_oversized_certificate_is_refused(tmp_path, capsys, command):
    # 4 * 250001 slots, just past the bound
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"word": "abAB", "rank": 2, "disks": [{"power": 250001}],
                                "pairing": [], "verdict": TORUS_VERDICT}))
    assert run_main(command[0], str(path), *command[1:]) == 3
    out, err = capsys.readouterr()
    assert err == "cannot load certificate: the disks hold more than 1000000 slots\n"
    assert not out


@pytest.mark.parametrize("command", [("render",), ("render", "--cover"), ("cover",)])
def test_a_file_without_a_certificate_names_the_missing_field(tmp_path, capsys, command):
    # the saved output of a not-polygonal `check` holds obstruction evidence
    # and no word; a T_n part without its cycles is no certificate either
    saved = tmp_path / "not-polygonal.json"
    assert run_main("check", "a b a b^2 a b^3", "--out", str(saved)) == 1
    torus = {"word": "abAB", "rank": 2, "disks": [{"power": 1}],
             "pairing": [[[0, 0], [0, 2]], [[0, 1], [0, 3]]], "verdict": TORUS_VERDICT,
             "tn_certificate": {"rank": 2}}
    (tmp_path / "tn.json").write_text(json.dumps(torus))
    capsys.readouterr()
    for name, field in (("not-polygonal.json", "word"), ("tn.json", "cycles")):
        assert run_main(command[0], str(tmp_path / name), *command[1:]) == 3
        assert capsys.readouterr() == ("", "cannot load certificate: the file holds no "
                                           "polygonal certificate (no field '%s')\n" % field)


@pytest.mark.parametrize("command", ["minimize", "diskbusting"])
def test_whitehead_past_the_rank_cap_is_inconclusive(capsys, monkeypatch, command):
    monkeypatch.setattr(cli.whitehead, "MAX_MOVE_RANK", 2)
    assert run_main(command, "abc") == 2
    data = json.loads(capsys.readouterr().out)
    assert data == {"word": "abc", "status": "inconclusive",
                    "reason": "rank 3 is past the Whitehead move cap, rank 2"}
    assert run_main(command, "abAB") in (0, 1)


@pytest.mark.parametrize("command", ["minimize", "diskbusting"])
def test_whitehead_past_the_work_cap_is_inconclusive(capsys, monkeypatch, command):
    # "a b a b^2 a b^3" takes three passes of 12 move images, 264 letters in all
    monkeypatch.setattr(cli.whitehead, "MAX_MOVE_WORK", 100)
    assert run_main(command, "a b a b^2 a b^3") == 2
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "inconclusive"
    assert data["reason"] == "minimization past 100 letters"
    monkeypatch.setattr(cli.whitehead, "MAX_MOVE_WORK", 1000)
    assert run_main(command, "a b a b^2 a b^3") in (0, 1)
