"""Word algebra for free groups of finite rank.

Letters are nonzero integers: ``k`` stands for the k-th generator and
``-k`` for its inverse.  In text, generators are written ``a..z`` (so
``a`` is generator 1) and a capital letter is the inverse of the
corresponding lowercase one: ``"aaB"`` is a^2 b^-1.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Tuple


class WordSyntaxError(ValueError):
    """Malformed word text; ``position`` is the offending index."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class RankExceededError(ValueError):
    """A letter refers to a generator beyond the ambient rank."""


class EmptyWordError(ValueError):
    """The identity element has no cyclically reduced representative."""


def letter_key(x):
    """Sort key realizing the fixed total order a < a^-1 < b < b^-1 < ...

    >>> sorted([2, -1, 1, -2], key=letter_key)
    [1, -1, 2, -2]
    """
    return (abs(x), 0 if x > 0 else 1)


def word_key(letters):
    return tuple(letter_key(x) for x in letters)


def letter_to_str(x):
    g = abs(x) - 1
    if not 0 <= g < 26:
        raise ValueError("no letter name for generator %d" % abs(x))
    return string.ascii_lowercase[g] if x > 0 else string.ascii_uppercase[g]


def letters_to_str(letters):
    return "".join(letter_to_str(x) for x in letters)


def inverse_letters(letters):
    return tuple(-x for x in reversed(letters))


def free_reduce(letters):
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _check_letters(rank, letters):
    if rank < 1:
        raise ValueError("rank must be >= 1")
    for x in letters:
        if x == 0:
            raise ValueError("0 is not a letter")
        if abs(x) > rank:
            raise RankExceededError(
                "generator %r exceeds rank %d" % (letter_to_str(x) if abs(x) <= 26 else abs(x), rank)
            )


@dataclass(frozen=True)
class Word:
    """A (not necessarily reduced) word in the rank-n free group."""

    rank: int
    letters: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        _check_letters(self.rank, self.letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return letters_to_str(self.letters) if self.letters else "<empty>"

    def inverse(self):
        return Word(self.rank, inverse_letters(self.letters))


def _canonical_rotation(letters):
    """The least rotation under ``word_key``, by Booth's O(n) algorithm:
    ``fail`` is the KMP failure function of the doubled key read from the
    best start ``k`` found so far."""
    key = word_key(letters)
    key += key
    fail = [-1] * len(key)
    k = 0
    for j in range(1, len(key)):
        x = key[j]
        i = fail[j - k - 1]
        while i != -1 and x != key[k + i + 1]:
            if x < key[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if x != key[k + i + 1]:  # here i == -1
            if x < key[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return letters[k:] + letters[:k]


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced word, stored in its canonical rotation.

    The canonical rotation is the lexicographically least one under the
    letter order of :func:`letter_key`, so equal cyclic words compare equal.
    """

    rank: int
    letters: Tuple[int, ...]

    def __post_init__(self):
        letters = tuple(self.letters)
        if not letters:
            raise EmptyWordError("a cyclic word must be nonempty")
        _check_letters(self.rank, letters)
        n = len(letters)
        for i in range(n):
            if letters[i] == -letters[(i + 1) % n]:
                raise ValueError(
                    "not cyclically reduced: positions %d,%d cancel" % (i, (i + 1) % n)
                )
        object.__setattr__(self, "letters", _canonical_rotation(letters))

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return letters_to_str(self.letters)

    def rotated(self, r):
        """The raw letter tuple rotated to start at position r (not canonicalized)."""
        r %= len(self.letters)
        return self.letters[r:] + self.letters[:r]

    def inverse(self):
        return CyclicWord(self.rank, inverse_letters(self.letters))

    def support(self):
        return frozenset(abs(x) for x in self.letters)

    def is_positive(self):
        return all(x > 0 for x in self.letters)


# The most letters a word text may expand to, far above any word the
# constructions or the search can handle.
MAX_WORD_LENGTH = 10 ** 6


def parse_word(text, rank=None):
    """Parse word text into a literally expanded :class:`Word`.

    Grammar: ``word := term+ ; term := atom ("^" (int | atom))? ;
    atom := letter | "(" word ")"``.  An integer exponent repeats (or
    inverts) the atom literally; an atom exponent is right-conjugation,
    ``u^v = v^-1 u v``.  Whitespace is ignored.  With ``rank=None`` the
    rank is inferred as the largest generator mentioned.  A text that
    would expand past ``MAX_WORD_LENGTH`` letters is a syntax error,
    raised before the expansion is built.

    >>> parse_word("a^2 b^-1", 2).letters
    (1, 1, -2)
    >>> parse_word("(a^2)^b", 2).letters
    (-2, 1, 1, 2)
    """
    src, n = text, len(text)
    pos = 0
    too_long = "word expands past %d letters" % MAX_WORD_LENGTH

    def skip_ws(pos):
        while pos < n and src[pos].isspace():
            pos += 1
        return pos

    def parse_int(pos):
        start = pos
        if src[pos] in "+-":
            pos += 1
        digits = pos
        while pos < n and src[pos].isdecimal():
            pos += 1
        if pos == digits:
            raise WordSyntaxError("expected an integer exponent", start)
        if len(src[digits:pos].lstrip("0")) > len(str(MAX_WORD_LENGTH)):
            raise WordSyntaxError(too_long, start)
        value = int(src[start:pos])
        if value == 0:
            raise WordSyntaxError("exponent must be nonzero", start)
        return value, pos

    def grow(size, at):
        """Refuse to add ``size`` letters past the bound."""
        if held + len(out) + size > MAX_WORD_LENGTH:
            raise WordSyntaxError(too_long, at)

    # One frame per open "(": the enclosing word's letters so far, the
    # position of the "(", and the base the group conjugates (None when
    # the group is itself a base).  ``held`` counts the frames' letters.
    stack = []
    held = 0
    out = []  # letters of the innermost open word
    conj_of = None  # the base whose conjugating atom is read next
    while True:
        # read an atom: a letter, or open a group and read its first atom
        pos = skip_ws(pos)
        if pos >= n:
            raise WordSyntaxError("unexpected end of input", pos)
        ch = src[pos]
        if ch == "(":
            stack.append((out, pos, conj_of))
            held += len(out) + len(conj_of or ())
            out, conj_of = [], None
            pos += 1
            continue
        if ch in string.ascii_lowercase:
            atom = [ord(ch) - ord("a") + 1]
        elif ch in string.ascii_uppercase:
            atom = [-(ord(ch) - ord("A") + 1)]
        else:
            raise WordSyntaxError("unexpected character %r" % ch, pos)
        pos += 1
        # finish terms and close groups until another atom must be read
        while True:
            if conj_of is not None:
                grow(2 * len(atom) + len(conj_of), pos)
                out += list(inverse_letters(atom)) + conj_of + atom
                conj_of = None
            else:
                pos = skip_ws(pos)
                if pos < n and src[pos] == "^":
                    pos = skip_ws(pos + 1)
                    if pos < n and (src[pos].isdecimal() or src[pos] in "+-"):
                        at = pos
                        e, pos = parse_int(pos)
                        grow(len(atom) * abs(e), at)
                        out += atom * e if e > 0 else list(inverse_letters(atom)) * -e
                    else:
                        conj_of = atom
                        break
                else:
                    grow(len(atom), pos)
                    out += atom
            pos = skip_ws(pos)
            if pos < n and src[pos] == ")" and stack:
                atom = out
                out, _open, conj_of = stack.pop()
                held -= len(out) + len(conj_of or ())
                pos += 1
                continue
            if pos >= n:
                if stack:
                    raise WordSyntaxError("unbalanced '('", stack[-1][1])
                return Word(max(abs(x) for x in out) if rank is None else rank, tuple(out))
            if src[pos] == ")":
                raise WordSyntaxError("trailing input", pos)
            break


def cyclic_reduce(w):
    """Cyclically reduce a :class:`Word` (or re-canonicalize a CyclicWord).

    The result is conjugate to ``w`` in the free group.  Raises
    :class:`EmptyWordError` when ``w`` freely reduces to the identity.
    """
    if isinstance(w, CyclicWord):
        return w
    letters = list(free_reduce(w.letters))
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    if not letters:
        raise EmptyWordError("word reduces to the identity")
    return CyclicWord(w.rank, tuple(letters))


def cyclic_word(text, rank=None):
    """Parse and cyclically reduce in one step."""
    return cyclic_reduce(parse_word(text, rank))


@dataclass(frozen=True)
class Syllables:
    """Maximal-run decomposition w = prod a_{k_i}^{p_i} with k_i != k_{i+1} cyclically."""

    rank: int
    parts: Tuple[Tuple[int, int], ...]  # (generator, exponent != 0)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(tuple(p) for p in self.parts))
        n = len(self.parts)
        for i, (g, e) in enumerate(self.parts):
            if e == 0 or not 1 <= g <= self.rank:
                raise ValueError("bad syllable %r" % ((g, e),))
            if n > 1 and g == self.parts[(i + 1) % n][0]:
                raise ValueError("adjacent syllables share generator %d" % g)

    def __len__(self):
        return len(self.parts)

    def expand(self):
        letters = []
        for g, e in self.parts:
            letters.extend([g if e > 0 else -g] * abs(e))
        return CyclicWord(self.rank, tuple(letters))


def syllable_decomposition(w):
    """Group the canonical-rotation letters into cyclic syllables.

    The canonical rotation always begins at a syllable boundary, so the
    returned parts align with positions in ``w.letters``.

    >>> syllable_decomposition(cyclic_word("a^2 b^-3")).parts
    ((1, 2), (2, -3))
    """
    parts = []
    for x in w.letters:
        if parts and abs(x) == parts[-1][0]:
            parts[-1][1] += 1 if x > 0 else -1
        else:
            parts.append([abs(x), 1 if x > 0 else -1])
    # The canonical rotation starts with the least letter, which is always a
    # syllable start; merging across the wrap could only occur for a
    # single-generator word, where everything collapses to one syllable.
    if len(parts) > 1 and parts[0][0] == parts[-1][0]:
        last = parts.pop()
        parts[0][1] += last[1]
    return Syllables(w.rank, tuple((g, e) for g, e in parts))


def syllable_starts(w):
    """Start position of each syllable of ``w`` in canonical coordinates."""
    syl = syllable_decomposition(w)
    starts = []
    pos = 0
    for g, e in syl.parts:
        starts.append(pos)
        pos += abs(e)
    return syl, tuple(starts)


def primitive_root(w):
    """Maximal decomposition w = root^power as cyclic words.

    >>> primitive_root(cyclic_word("abab ab"))
    (CyclicWord(rank=2, letters=(1, 2)), 3)
    """
    letters = w.letters
    n = len(letters)
    for d in range(1, n + 1):
        if n % d:
            continue
        if letters[d:] + letters[:d] == letters:
            return CyclicWord(w.rank, letters[:d]), n // d
    raise AssertionError("unreachable: every word has period |w|")


def is_proper_power(w):
    return primitive_root(w)[1] > 1


@dataclass(frozen=True)
class Relabeling:
    """A polygonality-preserving word transform.

    ``perm`` maps generator i to generator perm[i-1]; ``invert`` lists the
    generators whose orientation flips; ``invert_word`` reverses the word;
    ``rotation`` rotates the starting point (a no-op on canonical cyclic
    words, kept so transforms can be recorded verbatim).
    """

    perm: Tuple[int, ...] | None = None
    invert: frozenset = frozenset()
    invert_word: bool = False
    rotation: int = 0

    def __post_init__(self):
        object.__setattr__(self, "invert", frozenset(self.invert))
        if self.perm is not None:
            object.__setattr__(self, "perm", tuple(self.perm))
            if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
                raise ValueError("perm must be a permutation of 1..n")

    def apply_letter(self, x):
        g, s = abs(x), 1 if x > 0 else -1
        if self.perm is not None:
            if g > len(self.perm):
                raise ValueError("perm does not cover generator %d" % g)
            g = self.perm[g - 1]
        if abs(x) in self.invert:
            s = -s
        return s * g

    def apply_letters(self, letters):
        out = tuple(self.apply_letter(x) for x in letters)
        if self.invert_word:
            out = inverse_letters(out)
        if self.rotation:
            r = self.rotation % len(out)
            out = out[r:] + out[:r]
        return out


def transform(w, relabeling):
    """Apply a :class:`Relabeling` and re-canonicalize.

    >>> str(transform(cyclic_word("aab"), Relabeling(invert=frozenset({1}))))
    'AAb'
    """
    return CyclicWord(w.rank, relabeling.apply_letters(w.letters))


def rotation_offset(layout, canonical):
    """Least o with canonical[u] == layout[(u+o) % n] for all u, or None."""
    n = len(layout)
    if n != len(canonical):
        return None
    for o in range(n):
        if all(canonical[u] == layout[(u + o) % n] for u in range(n)):
            return o
    return None
