import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import least_rotation, parse_letters_recursive, rank2_cyclic_words
from polyw.words import (
    MAX_WORD_LENGTH,
    _canonical_rotation,
    CyclicWord,
    EmptyWordError,
    RankExceededError,
    Relabeling,
    Word,
    WordSyntaxError,
    cyclic_reduce,
    cyclic_word,
    free_reduce,
    inverse_letters,
    is_proper_power,
    least_rotation as least_start,
    letter_key,
    parse_word,
    primitive_root,
    rotation_offset,
    syllable_decomposition,
    syllable_starts,
    transform,
)


def test_parse_literal_expansion():
    assert parse_word("a^2 b^-1", 2).letters == (1, 1, -2)


def test_parse_conjugation():
    # u^v = v^-1 u v, expanded literally
    assert parse_word("(a^2)^b", 2).letters == (-2, 1, 1, 2)


def test_parse_rank_bound():
    with pytest.raises(RankExceededError):
        parse_word("a c", 2)


def test_parse_uppercase_inverse():
    assert parse_word("aB", 2).letters == (1, -2)
    assert parse_word("aB", 2).letters == parse_word("a b^-1", 2).letters


def test_parse_errors_report_position():
    with pytest.raises(WordSyntaxError) as e:
        parse_word("a $ b", 2)
    assert e.value.position == 2
    with pytest.raises(WordSyntaxError):
        parse_word("(ab", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("a^0", 2)
    with pytest.raises(WordSyntaxError):
        parse_word("", 2)


def test_parse_nested_conjugation_and_powers():
    # (ab)^-2 inverts then repeats
    assert parse_word("(ab)^-2", 2).letters == (-2, -1, -2, -1)
    # conjugation exponent may itself be parenthesized
    assert parse_word("a^(bc)", 3).letters == (-3, -2, 1, 2, 3)


def test_parse_deep_nesting():
    # no recursion depth grows with the nesting
    assert parse_word("(" * 5000 + "a" + ")" * 5000).letters == (1,)
    assert parse_word("(" * 5000 + "a" + ")^b" * 5000).letters[5000] == 1


def test_parse_superscript_digit_is_a_syntax_error():
    # "²" is a digit to str.isdigit but no integer to int()
    with pytest.raises(WordSyntaxError) as e:
        parse_word("a^\u00b2", 2)
    assert e.value.position == 2


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except WordSyntaxError as err:
        return ("error", str(err), err.position)


# integer exponents of size one only, so nesting cannot multiply the length
nested_texts = st.recursive(
    st.one_of(st.text(alphabet="abAB", min_size=1, max_size=3),
              st.sampled_from(["a^2", "B^-3", "b ^ +2"])),
    lambda inner: st.one_of(
        st.builds("({})".format, inner),
        st.builds("{}^{}".format, inner, inner),
        st.builds("({})^({})".format, inner, inner),
        st.builds("{}^{}".format, inner, st.sampled_from(["1", "-1", "+1", "0", "", " -", "+"])),
        st.builds("{} {}".format, inner, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(nested_texts, st.lists(st.tuples(st.integers(0, 60), st.sampled_from("()^ -2aB$")),
                              max_size=3), st.one_of(st.none(), st.integers(0, 60)))
def test_parse_matches_recursive_oracle(text, edits, cut):
    # well-formed nested texts, and the same texts with characters put in or
    # taken out or cut short, so unbalanced and misplaced tokens occur too
    for at, ch in edits:
        at %= len(text) + 1
        text = text[:at] + ch + text[at:] if ch != "-" else text[:at] + text[at + 1:]
    if cut is not None:
        text = text[:cut % (len(text) + 1)]
    mine = _parse_outcome(lambda t: parse_word(t, 26).letters, text)
    assert mine == _parse_outcome(parse_letters_recursive, text), text


def test_cyclic_reduce_conjugation_collapse():
    assert cyclic_word("a b a^-1").letters == (2,)


def test_cyclic_reduce_q23_word():
    w = cyclic_word("a^-2 b^-1 a^-1 b a b^-1 a b")
    assert len(w) == 9


def test_cyclic_reduce_rotation_canonicalization():
    assert cyclic_word("bab", 2) == cyclic_word("abb", 2)


def test_cyclic_reduce_identity_rejected():
    with pytest.raises(EmptyWordError):
        cyclic_word("a A")


def test_cyclic_reduce_idempotent_examples():
    for text in ["ab", "a^2 b^-3", "a^-2 b^-1 a^-1 b a b^-1 a b"]:
        w = cyclic_word(text)
        assert cyclic_reduce(w) == w


def test_syllables_direct():
    assert syllable_decomposition(cyclic_word("a^2 b^-3")).parts == ((1, 2), (2, -3))


def test_syllables_paper_example():
    w = cyclic_word("a^6 b^-3 c^5 b^4 c^-7")
    assert syllable_decomposition(w).parts == ((1, 6), (2, -3), (3, 5), (2, 4), (3, -7))


def test_syllables_single():
    assert syllable_decomposition(cyclic_word("a^5")).parts == ((1, 5),)


def test_syllable_starts_align_with_canonical_letters():
    w = cyclic_word("a^6 b^-3 c^5 b^4 c^-7")
    syl, starts = syllable_starts(w)
    for (g, e), s in zip(syl.parts, starts):
        run = w.letters[s : s + abs(e)]
        assert run == tuple([g if e > 0 else -g] * abs(e))


def test_syllables_are_read_once_and_left_out_of_equality():
    w, fresh = cyclic_word("a^2 b^-3 a b"), cyclic_word("a^2 b^-3 a b")
    assert syllable_starts(w) is syllable_starts(w)
    assert syllable_decomposition(w) is syllable_starts(w)[0]
    assert w == fresh and hash(w) == hash(fresh) and {w: 1}[fresh] == 1


def test_primitive_root_visible_period():
    root, k = primitive_root(cyclic_word("ababab"))
    assert (str(root), k) == ("ab", 3)


def test_primitive_root_power_one_by_divisor_oracle():
    w = cyclic_word("a (a^2)^b")
    # oracle: try every divisor rotation directly
    n = len(w)
    periods = [d for d in range(1, n + 1) if n % d == 0
               and w.letters[d:] + w.letters[:d] == w.letters]
    assert min(periods) == n
    assert primitive_root(w) == (w, 1)


def test_proper_power_check_matches_the_root():
    # every rank-2 cyclic word of length up to 10, and the squares and
    # cubes of those up to length 5
    checked = 0
    for length in range(1, 11):
        for w in rank2_cyclic_words(length):
            powers = [w] + [CyclicWord(2, w.letters * k) for k in (2, 3) if length <= 5]
            for v in powers:
                assert is_proper_power(v) == (primitive_root(v)[1] > 1), str(v)
                checked += 1
    assert checked > 9500


def test_primitive_root_single_generator():
    root, k = primitive_root(cyclic_word("a^4"))
    assert (str(root), k) == ("a", 4)


def test_transform_invert_generator():
    w = transform(cyclic_word("a^2 b"), Relabeling(invert={1}))
    assert w == cyclic_word("a^-2 b")


def test_transform_word_inverse():
    w = transform(cyclic_word("ab"), Relabeling(invert_word=True))
    assert w == cyclic_reduce(parse_word("b^-1 a^-1", 2))


def test_transform_swap_generators():
    w = transform(cyclic_word("a^2 b^3"), Relabeling(perm=(2, 1)))
    assert w == cyclic_word("b^2 a^3", 2)


def test_transform_rotation_is_noop_on_cyclic_words():
    w = cyclic_word("a^2 b^3")
    assert transform(w, Relabeling(rotation=2)) == w


def test_rotation_offset():
    layout = (1, -2, 1, 1, 2)
    canon = cyclic_word("a (a^2)^b").letters
    o = rotation_offset(layout, canon)
    assert o is not None
    assert tuple(layout[(u + o) % 5] for u in range(5)) == canon


letters_st = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
words_st = st.lists(letters_st, min_size=1, max_size=12)


@given(words_st)
def test_cyclic_reduce_idempotent_and_shorter(ls):
    w = Word(2, tuple(ls))
    try:
        cw = cyclic_reduce(w)
    except EmptyWordError:
        assert not free_reduce(ls) or len(free_reduce(ls)) % 2 == 0
        return
    assert len(cw) <= len(w)
    assert cyclic_reduce(cw) == cw


@given(words_st)
def test_syllable_roundtrip(ls):
    try:
        w = cyclic_reduce(Word(2, tuple(ls)))
    except EmptyWordError:
        return
    assert syllable_decomposition(w).expand() == w


@given(words_st)
def test_primitive_root_rotation_property(ls):
    try:
        w = cyclic_reduce(Word(2, tuple(ls)))
    except EmptyWordError:
        return
    root, k = primitive_root(w)
    assert len(root) * k == len(w)
    d = len(root)
    assert w.letters[d:] + w.letters[:d] == w.letters


def _all_reduced_words(rank, length):
    letters = [x for g in range(1, rank + 1) for x in (g, -g)]
    for combo in itertools.product(letters, repeat=length):
        if all(combo[i] != -combo[i + 1] for i in range(length - 1)):
            yield combo


def test_conjugacy_criterion_brute_force():
    # Two words are conjugate iff their cyclic reductions agree; checked
    # against explicit conjugator search for short words.
    rng = random.Random(7)
    pool = [w for L in (2, 3, 4) for w in _all_reduced_words(2, L)]
    sample = rng.sample(pool, 40)
    conjugators = [()] + [w for L in (1, 2, 3) for w in _all_reduced_words(2, L)]
    for _ in range(120):
        u = rng.choice(sample)
        v = rng.choice(sample)
        conjugate = any(
            free_reduce(inverse_letters(c) + u + c) == free_reduce(v)
            for c in conjugators
        )
        same_cyclic = cyclic_reduce(Word(2, u)) == cyclic_reduce(Word(2, v))
        if conjugate:
            assert same_cyclic
        if same_cyclic and max(len(u), len(v)) <= 4:
            # short enough that a length-<=3 conjugator must exist
            assert conjugate


def test_letter_key_total_order():
    assert sorted([1, -1, 2, -2], key=letter_key) == [1, -1, 2, -2]
    w = CyclicWord(2, (2, 1, 1))
    assert w.letters == (1, 1, 2)


@given(st.lists(letters_st, min_size=1, max_size=8), st.integers(min_value=1, max_value=4))
def test_canonical_rotation_is_least_rotation(ls, k):
    # k > 1 makes a proper power, which has several least rotations
    letters = tuple(ls) * k
    assert _canonical_rotation(letters) == least_rotation(letters, letter_key)


def test_least_rotation_is_the_least_start_of_the_least_rotation():
    # half the sequences repeat a shorter block, so the least rotation
    # starts at several indices and the least of them is the answer
    rng = random.Random(2101)
    for _ in range(3000):
        if rng.random() < 0.5:
            block = [rng.randint(0, 2) for _ in range(rng.randint(1, 8))]
            key = block * rng.randint(2, 16 // len(block))
        else:
            key = [rng.randint(0, 2) for _ in range(rng.randint(1, 16))]
        naive = min(range(len(key)), key=lambda r: key[r:] + key[:r])
        assert least_start(key) == naive, key


def test_canonical_rotation_long_word():
    rng = random.Random(4000)
    letters = [1]
    while len(letters) < 4000:
        x = rng.choice([x for x in (1, -1, 2, -2) if x != -letters[-1]])
        letters.append(x)
    letters[-1] = 2 if letters[-2] != -2 else -2  # cyclically reduced
    w = CyclicWord(2, tuple(letters))
    assert w.letters == least_rotation(tuple(letters), letter_key)


def test_parse_expansion_bound():
    assert len(parse_word("a^%d" % MAX_WORD_LENGTH)) == MAX_WORD_LENGTH
    for text in ["a^%d b" % MAX_WORD_LENGTH, "a^200000000", "((a^1000)^1000)^1000",
                 "(a^999999)^(b^999999)", "(a^600000)" * 2, "a^" + "9" * 5000]:
        with pytest.raises(WordSyntaxError, match="expands past"):
            parse_word(text)
    # leading zeros do not count toward the exponent's size
    assert parse_word("a^" + "0" * 40 + "2").letters == (1, 1)
