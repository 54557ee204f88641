"""Byte-for-byte pins of CLI output, so a faster quotient or certifier
cannot change a certificate.

Each hash is the sha256 of the command's stdout.  ``check`` runs at the
benchmark's bounds on the paper examples (all but the one over the
boundary-invariant cap) and on one word from each of three ladder strata:
a 144-syllable T_3 word, a 12-factor isolated-b word and a 4-pair
height-one word.  ``render`` and ``cover`` run on the torus and the
one-disk figure certificate.
"""

import hashlib

import pytest

from polyw import cli
from polyw.complexes import DiskSpec, certify
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

CHECK_PINS = [
    ("a^6 b^-3 c^5 b^4 c^-7", 0,
     "9b9fac2d28f4f5882f5cb8236d637c15c494423f295258175790efe43c478dfa"),
    ("a^3 b^2 a^-2 b^-3", 0,
     "bcdf38cda970de47f9493f0236869cf860c406c2ce3516c05805836a6c22d389"),
    ("a^2 (a^3)^b", 0,
     "0005108fa8719f5546c03fb126ac603746bee97153f40c382527314d67379d5f"),
    ("a (a^2)^b", 0,
     "bedf511e92f5bdaef4cd44ac2c262c47ce5df6b41ef80ba05db198badd5035ac"),
    ("a^3 (a)^b", 0,
     "a45d0668beb52fa0910ec1766e1ed71ec4b19cfabf6f48c56d71afcc991cd3ec"),
    ("a^2 (a^-1)^b a a^b", 0,
     "cea1f003595e54ddfcaa864d99aed5bc8cfdeb4ed7162cc2c225731d78029c31"),
    ("a b a b^2 a b^3", 1,
     "0e27c34d6d9a583444c10ff9cd9453e8c97eeee19c375deeafcb8a53496780c0"),
    (TN_144, 0, "eca5c9647854788326f6c3ae996177284cf102a1c7e661d99cd2da72ff0449ee"),
    (ISOLATED_B_12, 0, "791d20c0670da31180af75819e1fe195e9045fe2796b00fc81ff5ea601c50768"),
    (HEIGHT_ONE_4, 0, "176c572b4e278e95546b6f25f44645d25ac8373abd6b56dc27d681cd2c46ab5e"),
]

SURFACE_PINS = [
    ("torus", ("render",), "f1d0c68eb740d4ac669334a5f2efeff0ac1368666bdb56eeda50e062b1b34922"),
    ("torus", ("render", "--cover"),
     "36cc047c73812fed62298c81c357ab0cb0fbbdde5a06cddce4321d63a0a64a00"),
    ("torus", ("cover",), "0c6c7ec9f31da71ebbd6e0e93cc4f5043782dc7e7b20d1ad634f64f49d9fb0fb"),
    ("figure", ("render",), "37f0c042ee4b84e06a34a353302d27b4903d1de78e6e7fe1e9b21385d9cacd02"),
    ("figure", ("render", "--cover"),
     "8d27653576133fec80e4a080e7b3a3bd14d2504144dc184b18fa60cef3f2b7ee"),
    ("figure", ("cover",), "f6b9bea3a69ad346befe1e1b5beac3d04097628da061c8d9fb1ed95df525b5c7"),
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
