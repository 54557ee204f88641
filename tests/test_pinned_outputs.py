"""Byte-for-byte pins of CLI output, so a faster quotient or certifier
cannot change a certificate.

Each hash is the sha256 of the command's stdout.  ``check`` runs at the
benchmark's bounds on the paper examples (all but the 4020-term
height-one word) and on ladder words: a 144-syllable T_3 word, a
12-factor isolated-b word, a 4-pair height-one word, and a 16-pair
height-one word whose 7770-term boundary invariant the term cap
refuses.  ``render`` and ``cover`` run on the torus and the one-disk
figure certificate.  ``rho``, ``minimize``, ``diskbusting`` and ``stats``
run on words and arguments that reach each of their outcomes, past the
Whitehead rank cap included.  Each usage error is pinned by its exact
stderr, with exit 3 and no stdout.
"""

import hashlib

import pytest

from polyw import cli
from polyw.complexes import DiskSpec, certify, proper_power_certificate
from polyw.search import SearchBounds, enumerate_all
from polyw.words import cyclic_word

BOUNDS = ("--max-disks", "2", "--powers", "2", "--time-budget", "2")

TN_144 = (
    "a^3 c^2 b^4 a^2 b^-2 c^4 a^3 c^-2 b^-2 a^3 c^3 a^4 b^-4 a^4 c^4 a^2 b^3 c^4 a^4 c^4 "
    "b^4 a^4 c^4 b^3 a^2 b^2 a^4 c^-2 b^4 a^3 c^2 a^3 c^3 a^4 b^2 a^2 b^3 c^-3 a^2 c^2 "
    "b^-2 a^3 b^-2 c^-4 a^4 c^-3 b^2 a^3 b^3 a^4 b^4 a^4 b^2 c^-3 a^3 c^2 a^3 c^-2 b^-2 "
    "a^4 b^-3 a^2 b^3 c^4 a^3 b^-2 a^4 b^-2 a^2 c^3 a^3 c^2 a^3 c^4 b^-2 a^3 c^-3 a^4 "
    "c^2 a^3 b^-3 a^2 b^-3 c^-4 a^3 c^-2 a^4 b^-3 c^3 a^4 b^-4 c^-4 a^4 c^4 a^4 b^2 c^-3 "
    "a^3 b^-2 c^4 a^4 c^3 a^3 b^-2 c^3 a^2 c^-4 b^-4 a^2 b^3 a^2 c^-3 a^2 b^2 a^3 c^2 "
    "a^2 c^-4 b^-2 a^2 b^-2 a^2 c^-2 b^-3 a^4 c^3 b^-2 a^4 b^-3 a^4 c^3 a^3 c^-4 a^3 b^4 "
    "c^-3 a^3 b^-4 a^4 b^-4 c^4 a^2 c^2 b^4"
)
ISOLATED_B_12 = (
    "a^3 b^-1 a^4 b^1 a^-2 b^1 a^5 b^1 a^-4 b^-1 a^2 b^1 a^5 b^-1 a^-3 b^-1 a^5 b^-1 "
    "a^5 b^-1 a^-2 b^-1 a^-5 b^-1"
)
HEIGHT_ONE_4 = "a^-3 (a^1)^b a^-3 (a^1)^b a^-1 (a^2)^b a^-2 (a^2)^b"
HEIGHT_ONE_16 = (
    "a^1 (a^1)^b a^1 (a^1)^b a^1 (a^1)^b a^3 (a^1)^b a^3 (a^2)^b a^2 (a^2)^b a^1 (a^1)^b "
    "a^3 (a^2)^b a^1 (a^2)^b a^2 (a^1)^b a^3 (a^1)^b a^2 (a^2)^b a^3 (a^1)^b a^3 (a^1)^b "
    "a^3 (a^1)^b a^2 (a^2)^b"
)

CHECK_PINS = [
    ("a^6 b^-3 c^5 b^4 c^-7", 0,
     "9eb106d0887bf269088b17183b7d5f1492c59c92063d8b4f870addcc27ea6730"),
    ("a^3 b^2 a^-2 b^-3", 0,
     "0e6ad0a2fd75d038239e35d50c0e239c5545bb21573a4a67513853b9c41a05b9"),
    ("a^2 (a^3)^b", 0,
     "1d53caa71143526a8a9a180966866afa98dd6d1815f3a39ce5aa5345ee802463"),
    ("a (a^2)^b", 0,
     "7acea6edb874cfe512280efb0543b81804e0e77507e452b1c763c76df08aebe9"),
    ("a^3 (a)^b", 0,
     "7db9e87069cd8ef9955e0bbee508c4c3712eb034baaa418cede3e256ae8061c3"),
    ("a^2 (a^-1)^b a a^b", 0,
     "665d96a5d8f4d37585201f631aefb08d7eca2428c053b6dea587ce65d28b86a6"),
    ("a b a b^2 a b^3", 1,
     "87b8e0a7feea3132548ac671fdfdbdbd374ba47337a6752a383209303c4f2298"),
    (TN_144, 0, "609cb3bb1af5d5319f38832cbfed5a89c6057e5f26eb5f2ae9db726065317232"),
    (ISOLATED_B_12, 0, "23d5555daef2cd4d084a382da2240d713266a7b0ff7f1dcbf0c56d9d60809976"),
    (HEIGHT_ONE_4, 0, "88214131f19efd0f872e1a0feaca3c9588b337b8f724ddf91e72fb3f1d5f0572"),
    (HEIGHT_ONE_16, 2, "4fdb61e1d55aa773d561d1e95e339a320dc20a3e80d942910b6d7c0356a7bdfd"),
]

SURFACE_PINS = [
    ("torus", ("render",), "f1d0c68eb740d4ac669334a5f2efeff0ac1368666bdb56eeda50e062b1b34922"),
    ("torus", ("render", "--cover"),
     "36cc047c73812fed62298c81c357ab0cb0fbbdde5a06cddce4321d63a0a64a00"),
    ("torus", ("cover",), "8c45f7a9e92ef8c7f3095bdb13a660382fb4371db3de11b6ee4bf4719102141f"),
    ("figure", ("render",), "37f0c042ee4b84e06a34a353302d27b4903d1de78e6e7fe1e9b21385d9cacd02"),
    ("figure", ("render", "--cover"),
     "8d27653576133fec80e4a080e7b3a3bd14d2504144dc184b18fa60cef3f2b7ee"),
    ("figure", ("cover",), "db76e3967dcc0a0c6310c2a9bb2de6d4a4365667b96072370a508b9bf3f2fe52"),
]


def stdout_of(capsys, argv):
    """(exit code, sha256 of stdout) of ``polyw argv`` run in this process."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("word, code, digest", CHECK_PINS, ids=[w[:24] for w, _c, _d in CHECK_PINS])
def test_check_output_is_pinned(capsys, word, code, digest):
    assert stdout_of(capsys, ("check", word) + BOUNDS) == (code, digest)


def surface_certificate(name):
    if name == "torus":
        t = cyclic_word("a b a^-1 b^-1")
        return certify(t, [DiskSpec(t, 1)], [((0, 0), (0, 2)), ((0, 1), (0, 3))])
    fig = cyclic_word("a^2 (a^-1)^b a a^b")
    return next(iter(enumerate_all(fig, SearchBounds(max_disks=1, max_power=2))))


@pytest.mark.parametrize("name, command, digest", SURFACE_PINS)
def test_render_and_cover_output_is_pinned(tmp_path, capsys, name, command, digest):
    path = tmp_path / ("%s.json" % name)
    path.write_text(surface_certificate(name).to_json())
    argv = (command[0], str(path)) + command[1:]
    assert stdout_of(capsys, argv) == (0, digest)


STATS = ("stats", "--length", "10", "--samples", "20", "--seed", "1", "--format")
COMMAND_PINS = [
    (("rho", "a^6 b^-3 c^5 b^4 c^-7"), 0,
     "2d8687564aa45683f9b6558812da80f9793af648baf4f3430cb762fb8f01f31f"),
    (("rho", "aCAB"), 1, "3144399cbf3ef9537f2ef13620f17f09f6f63d16900f5aa92f80a1b828c60fb6"),
    (("minimize", "a b a b^2 a b^3"), 0,
     "fef9bb45da1e5eb9ca1f4d16337e56224ab7b34ee7ac1a1c5e05595765333a02"),
    (("diskbusting", "abAB"), 0,
     "faee2c862ab079a2746ec7a14cf0a2b1e143385c7917feb48ccdc11309190588"),
    (("diskbusting", "a b^2 a b"), 1,
     "dd4a043e055066376f154dc4690bdc85fd7865dd80c5f2b6dfccb3226743aaf0"),
    # rank 7, past the Whitehead move cap
    (("diskbusting", "abcdefgABCDEFG"), 2,
     "868f5105b4382256106519c35298ede3a941daf945a4b3fff25a66c40541c80b"),
    (STATS + ("csv",), 0, "5959ef43a19bf10ac416fbf8df440f81cb305a1cc0aab95fb09573559ffd6a83"),
    (STATS + ("json",), 0, "88c32d528de3aeef4af7fdb5a7bac0fe7068dbf2c932de4ce271fbab85fa362d"),
]


@pytest.mark.parametrize("argv, code, digest", COMMAND_PINS,
                         ids=[a[0] + " " + a[-1] for a, _c, _d in COMMAND_PINS])
def test_command_output_is_pinned(capsys, argv, code, digest):
    assert stdout_of(capsys, argv) == (code, digest)


# (argv, stderr); "{tmp}" stands for a fresh temporary directory, which
# holds "proper-power.json", a declarative certificate
USAGE_PINS = [
    (("check", "a^"), "parse error: unexpected end of input (at position 2)\n"),
    (("check", "ab", "--max-disks", "0"),
     "bad search bounds: bounds must allow at least one disk and power\n"),
    (("rho", "ab", "--out", "{tmp}/missing/x.json"),
     "error: [Errno 2] No such file or directory: '{tmp}/missing/x.json'\n"),
    (("cover", "{tmp}/missing.json"),
     "cannot load certificate: [Errno 2] No such file or directory: '{tmp}/missing.json'\n"),
    (("render", "{tmp}/proper-power.json"), "error: the certificate carries no surface\n"),
    (("stats", "--length", "0", "--samples", "1"),
     "bad stats arguments: length must be at least 2\n"),
]


@pytest.mark.parametrize("argv, err", USAGE_PINS, ids=[" ".join(a) for a, _e in USAGE_PINS])
def test_usage_error_is_pinned(tmp_path, capsys, argv, err):
    (tmp_path / "proper-power.json").write_text(
        proper_power_certificate(cyclic_word("abab")).to_json())
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(tmp=tmp_path) for a in argv])
    assert (exc.value.code, capsys.readouterr()) == (3, ("", err.format(tmp=tmp_path)))
