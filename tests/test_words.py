"""Braid word parsing, permutations, partitions, and moves."""

from __future__ import annotations

import pickle
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from braidskein.words import (
    BraidWord,
    Letter,
    MoveError,
    WordError,
    basis_braid,
    cycle_type,
    parse_word,
    partitions_of,
    permutation,
    signed_words,
)


def words(max_strands=5, max_len=8):
    def build(n, signed):
        return BraidWord.from_signed(n, signed)

    return st.integers(2, max_strands).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(
                st.integers(1, n - 1).flatmap(
                    lambda i: st.sampled_from([i, -i])
                ),
                max_size=max_len,
            ),
        )
    )


@st.composite
def gapped_words(draw, max_strands=40, max_len=10, min_strands=2):
    """Words whose generators come from a random subset, so that some
    strands are idle and the touched ones can sit far apart."""
    n = draw(st.integers(min_strands, max_strands))
    pool = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=6, unique=True))
    signed = draw(st.lists(st.sampled_from(pool).flatmap(
        lambda i: st.sampled_from([i, -i])), max_size=max_len))
    return BraidWord.from_signed(n, signed)


# -- parsing and formatting --------------------------------------------------


def test_parse_basic():
    w = parse_word("3: 1 -2 1")
    assert w.strand_count == 3
    assert w.signed_indices() == (1, -2, 1)
    assert w.crossing_ids() == (0, 1, 2)
    assert parse_word(" 03 : +1 -02").signed_indices() == (1, -2)


def test_parse_empty_word():
    w = parse_word("4:")
    assert w.strand_count == 4
    assert w.letters == ()
    assert w.format() == "4:"


def test_parse_rejects_garbage():
    # int() alone would take other scripts' digits and underscores
    for bad in ["", "3", "x: 1", "3: 0", "3: 3", "3: -3", "3: 1 q", "0: ",
                "3: 1 \u0662", "\u0663: 1", "3: \uff11", "12: 1_0", "1_2: 1"]:
        with pytest.raises(WordError):
            parse_word(bad)


def test_word_validates_letters():
    with pytest.raises(WordError):
        BraidWord(2, (Letter(2, 1, 0),))
    with pytest.raises(WordError):
        BraidWord(3, (Letter(1, 2, 0),))
    with pytest.raises(WordError):
        BraidWord(3, (Letter(1, 1, 0), Letter(2, 1, 0)))


def test_word_keeps_letters_as_a_tuple():
    # a kept list would leave the word unhashable and open to unchecked letters
    letters = [Letter(1, 1, 0), Letter(2, -1, 1)]
    word = BraidWord(3, tuple(letters))
    for built in (BraidWord(3, letters), BraidWord(3, (l for l in letters))):
        assert built.letters == word.letters and type(built.letters) is tuple
        assert built == word and hash(built) == hash(word)


@pytest.mark.parametrize("text, message", [
    ("3: 5 \u0662", "letter '5' out of range for 3 strands"),
    ("3: \u0662 5", "bad letter token '\u0662'"),
    ("3: 1_0 9", "bad letter token '1_0'"),
    ("3: 1 " + "1" * 4301, "bad letter token '" + "1" * 4301 + "'"),
    ("0:", "strand count must be >= 1, got 0"),
    ("x: 1", "bad strand count token 'x'"),
    ("\u0663: 1", "bad strand count token '\u0663'"),
    ("3 1", "expected 'n: letters', got '3 1'"),
])
def test_parse_errors_name_the_first_faulty_token(text, message):
    with pytest.raises(WordError) as raised:
        parse_word(text)
    assert str(raised.value) == message


def reference_parse(text):
    """The token-by-token rule: each token an ASCII decimal int with no
    underscore and at most 4,300 digits after its signs, converted and
    range-checked in token order."""
    def number(token, what):
        if token.isascii() and "_" not in token and len(token.lstrip("+-")) <= 4300:
            try:
                return int(token)
            except ValueError:
                pass
        raise WordError(f"bad {what} token {token!r}")

    head, sep, body = text.partition(":")
    if not sep:
        raise WordError(f"expected 'n: letters', got {text!r}")
    n = number(head.strip(), "strand count")
    if n < 1:
        raise WordError(f"strand count must be >= 1, got {n}")
    signed = []
    for token in body.split():
        s = number(token, "letter")
        if not 0 < abs(s) < n:
            raise WordError(f"letter {token!r} out of range for {n} strands")
        signed.append(s)
    return BraidWord.from_signed(n, signed)


def parse_outcome(parse, text):
    """The parsed word, or the WordError's message."""
    try:
        return parse(text)
    except WordError as error:
        return str(error)


def int_tokens(min_value, max_value, signs=("", "", "+", "-")):
    """Signed ASCII ints, with leading zeros and a leading '+'."""
    return st.builds(lambda sign, zeros, value: f"{sign}{'0' * zeros}{value}",
                     st.sampled_from(signs), st.integers(0, 2),
                     st.integers(min_value, max_value))


BAD_TOKENS = st.sampled_from(["1_0", "_1", "\u0662", "1\u0663", "\uff11", "1e5", "+-1",
                              "--1", "+", "-", "x"])
LONG_TOKENS = st.builds(lambda sign, digit, count: sign + digit * count,
                        st.sampled_from(["", "+", "-"]), st.sampled_from("019"),
                        st.sampled_from([4300, 4301]))
SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\u3000"])


@st.composite
def word_texts(draw):
    """Texts that parse, mixed with every kind of faulty head, separator and
    letter token: 0, out of range, not ASCII digits, and too long."""
    strand_counts = int_tokens(2, 9, signs=("", "+"))
    head = draw(st.one_of(strand_counts, strand_counts, strand_counts, int_tokens(0, 9),
                          BAD_TOKENS, LONG_TOKENS))
    sep = draw(st.sampled_from([":", ":", ":", ": ", " : ", ""]))
    letters = int_tokens(1, 4)
    tokens = draw(st.lists(st.one_of(letters, letters, letters, letters, letters,
                                     int_tokens(0, 12), BAD_TOKENS, LONG_TOKENS), max_size=8))
    gaps = draw(st.lists(SPACES, min_size=len(tokens), max_size=len(tokens)))
    return head + sep + "".join(gap + token for gap, token in zip(gaps, tokens))


@settings(max_examples=300)
@given(word_texts())
@example("3: 5 \u0662")
@example("3: 5 x")
@example("3: 1 -2 " + "1" * 4300)
@example("3: 1 -2 +" + "0" * 4300)
@example("3: 1 " + "1" * 4301 + " 9")
@example("3:" + " " * 5000)
def test_parse_matches_the_token_by_token_rule(text):
    assert parse_outcome(parse_word, text) == parse_outcome(reference_parse, text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int digit limit")
def test_parse_applies_the_lower_digit_limit():
    # parse_word's own limit is 4,300 digits: a lower int digit limit of the
    # interpreter's rejects shorter tokens too, and with none (0) parse_word
    # still rejects longer ones
    limit = sys.get_int_max_str_digits()
    try:
        for interpreter_limit, digits in ((640, 1000), (0, 4301)):
            sys.set_int_max_str_digits(interpreter_limit)
            text = "3: 1 " + "1" * digits
            assert parse_outcome(parse_word, text) == parse_outcome(reference_parse, text) == (
                f"bad letter token '{'1' * digits}'")
    finally:
        sys.set_int_max_str_digits(limit)
    text = "3: 1 " + "1" * 1000
    assert parse_outcome(parse_word, text) == f"letter '{'1' * 1000}' out of range for 3 strands"


@pytest.mark.parametrize("build, message", [
    (lambda: BraidWord.from_signed(3, [1.5]), "signed index 1.5 is not an int"),
    (lambda: BraidWord.from_signed(3, [1.0]), "signed index 1.0 is not an int"),
    (lambda: BraidWord.from_signed(3, [1, "2"]), "signed index '2' is not an int"),
    (lambda: BraidWord(3, [Letter(1, 1, "a"), Letter(2, -1, None)]),
     "Letter(index=1, sign=1, crossing_id='a') holds a value that is not an int"),
    (lambda: BraidWord(3, [Letter(1.0, 1, 0)]),
     "Letter(index=1.0, sign=1, crossing_id=0) holds a value that is not an int"),
    (lambda: BraidWord(3, [Letter(1, 1.0, 0)]),
     "Letter(index=1, sign=1.0, crossing_id=0) holds a value that is not an int"),
])
def test_non_int_letters_are_rejected(build, message):
    with pytest.raises(WordError) as raised:
        build()
    assert str(raised.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: BraidWord.from_signed(3.0, [1]), "strand count 3.0 is not an int"),
    (lambda: BraidWord.from_signed("3", []), "strand count '3' is not an int"),
    (lambda: BraidWord(3.0, []), "strand count 3.0 is not an int"),
    (lambda: BraidWord("3", []), "strand count '3' is not an int"),
    (lambda: BraidWord(None, [Letter(1, 1, 0)]), "strand count None is not an int"),
    (lambda: BraidWord(3, [(1, 1, 0)]), "(1, 1, 0) is not a Letter"),
    (lambda: BraidWord(3, [Letter(1, 1, 0), [2, -1, 1]]), "[2, -1, 1] is not a Letter"),
    (lambda: BraidWord(3, [1]), "1 is not a Letter"),
])
def test_non_int_strand_counts_and_non_letters_are_rejected(build, message):
    with pytest.raises(WordError) as raised:
        build()
    assert str(raised.value) == message


def test_bool_letters_stay_accepted():
    assert BraidWord.from_signed(3, [True, -True]) == parse_word("3: 1 -1")
    assert BraidWord(3, [Letter(True, True, False)]) == parse_word("3: 1")


def test_bool_strand_counts_follow_the_letters_rule():
    # a bool is an int, as for letters: True is one strand, False is too few
    assert BraidWord(True, []) == BraidWord.from_signed(True, []) == parse_word("1:")
    # stored as the int 1, so the word prints as "1:" and parses back
    for word in (BraidWord(True, []), BraidWord.from_signed(True, [])):
        assert type(word.strand_count) is int
        assert parse_word(word.format()) == word
    for build in (lambda: BraidWord(False, []), lambda: BraidWord.from_signed(False, [])):
        with pytest.raises(WordError, match="strand count must be >= 1, got False"):
            build()


@pytest.mark.parametrize("protocol", range(6))
def test_pickle_round_trips(protocol):
    word = parse_word("4: 1 -3 2")
    again = pickle.loads(pickle.dumps(word, protocol))
    assert type(again) is BraidWord and again == word


@pytest.mark.parametrize("protocol, index_1, index_7", [
    (0, b"I1\nI1\nI0", b"I7\nI1\nI0"),
    (1, b"K\x01K\x01K\x00", b"K\x07K\x01K\x00"),
])
def test_edited_pickles_are_checked(protocol, index_1, index_7):
    # without __reduce__, protocols 0 and 1 rebuild the word by tuple.__new__, past the checks
    data = pickle.dumps(parse_word("3: 1"), protocol)
    assert data.count(index_1) == 1
    with pytest.raises(WordError, match="generator index 7 out of range for 3 strands"):
        pickle.loads(data.replace(index_1, index_7))


@given(words(max_strands=8))
def test_unchecked_words_equal_checked_ones(w):
    for built in (w, parse_word(w.format())):
        assert built == BraidWord(built.strand_count, built.letters)
        assert all(type(letter) is Letter for letter in built.letters)


@given(words())
def test_format_parse_round_trip(w):
    back = parse_word(w.format())
    assert back.strand_count == w.strand_count
    assert back.signed_indices() == w.signed_indices()


# -- permutation and cycle type ----------------------------------------------


def test_permutation_examples():
    assert permutation(parse_word("3:")) == (1, 2, 3)
    assert permutation(parse_word("2: 1")) == (2, 1)
    assert permutation(parse_word("2: 1 1")) == (1, 2)
    # sign never matters for the underlying permutation
    assert permutation(parse_word("3: 1 -2")) == permutation(parse_word("3: 1 2"))


def test_cycle_type_examples():
    assert cycle_type(permutation(parse_word("2: 1 1 1"))) == (2,)
    assert cycle_type(permutation(parse_word("2: 1 1"))) == (1, 1)
    assert cycle_type(permutation(parse_word("3: 1 2"))) == (3,)
    assert cycle_type(permutation(parse_word("6: 2 5 4"))) == (3, 2, 1)


@given(words())
def test_cycle_type_is_partition(w):
    ct = cycle_type(permutation(w))
    assert ct in partitions_of(w.strand_count)


# -- partitions ---------------------------------------------------------------


def brute_partitions(n):
    found = set()

    def rec(remaining, cap, acc):
        if remaining == 0:
            found.add(tuple(acc))
            return
        for p in range(1, min(cap, remaining) + 1):
            rec(remaining - p, p, acc + [p])

    rec(n, n, [])
    return found


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)])
def test_partition_counts(n, count):
    ps = partitions_of(n)
    assert len(ps) == count
    assert set(ps) == brute_partitions(n)


def test_partition_order_is_reverse_lex():
    ps = partitions_of(4)
    assert ps == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert ps == sorted(ps, reverse=True)


@given(st.integers(1, 9))
def test_partitions_sorted_descending(n):
    for p in partitions_of(n):
        assert min(p) >= 1 and sum(p) == n and list(p) == sorted(p, reverse=True)
    assert partitions_of(n) == sorted(partitions_of(n), reverse=True)


# -- basis braids --------------------------------------------------------------


def test_basis_braid_examples():
    assert basis_braid((3,)).format() == "3: 2 1"
    assert basis_braid((1, 1, 1)).format() == "3:"
    assert basis_braid((2, 1)).format() == "3: 1"
    assert basis_braid((1, 2, 3)).format() == "6: 2 5 4"


@given(st.integers(1, 7).flatmap(lambda n: st.sampled_from(partitions_of(n)).map(lambda p: (p, n))))
def test_basis_braid_closes_to_its_partition(pn):
    parts, n = pn
    w = basis_braid(parts)
    assert w.strand_count == n
    assert cycle_type(permutation(w)) == tuple(sorted(parts, reverse=True))
    assert all(l.sign == 1 for l in w.letters)


def test_basis_braid_rejects_non_partition():
    with pytest.raises(ValueError):
        basis_braid((3, 0))
    with pytest.raises(ValueError):
        basis_braid(())
    # parts are ints: a float or bool part is not one, nor is a str
    for parts in [(2, 1.0), (2.0,), (True, 1), ("x",)]:
        with pytest.raises(ValueError, match="is not a partition$"):
            basis_braid(parts)


# -- moves ----------------------------------------------------------------------


def test_free_reduce():
    assert parse_word("3: 1 -1 2").free_reduce().signed_indices() == (2,)
    assert parse_word("3: 1 2 -2 -1").free_reduce().signed_indices() == ()
    assert parse_word("3: 1 -2 1").free_reduce().signed_indices() == (1, -2, 1)
    # across letters that commute with sigma_1, but not across sigma_2
    assert parse_word("4: 1 3 -1").free_reduce().signed_indices() == (3,)
    assert parse_word("4: 1 2 -1").free_reduce().signed_indices() == (1, 2, -1)
    assert parse_word("5: 1 4 -1 2 -4").free_reduce().signed_indices() == (2,)


def test_free_reduce_keeps_surviving_ids():
    w = parse_word("3: 1 -1 2")
    assert w.free_reduce().crossing_ids() == (2,)
    assert parse_word("5: 2 1 4 -1 -4 3").free_reduce().crossing_ids() == (0, 5)


def cancellable(signed: tuple[int, ...]) -> bool:
    """Whether some sigma_i^e has a later sigma_i^-e with only letters that
    commute with sigma_i in between, by trying every pair."""
    return any(signed[q] == -signed[p]
               and all(abs(abs(s) - abs(signed[p])) >= 2 for s in signed[p + 1:q])
               for p in range(len(signed)) for q in range(p + 1, len(signed)))


@given(words(max_strands=6, max_len=14))
def test_free_reduce_leaves_no_pair_that_cancels(w):
    reduced = w.free_reduce()
    assert not cancellable(reduced.signed_indices())
    assert len(reduced.letters) < len(w.letters) or not cancellable(w.signed_indices())
    # the kept letters, ids and all, are a subsequence of the word's
    letters = iter(w.letters)
    assert all(letter in letters for letter in reduced.letters)


def kept_by_the_rule(signed: tuple[int, ...]) -> list[int]:
    """The positions free_reduce keeps, by the rule stated plainly: a letter
    cancels the latest kept letter of its generator when that letter has
    the other sign and no kept letter on generator i - 1 or i + 1 lies
    after it."""
    kept: list[int] = []
    for q, s in enumerate(signed):
        same = [p for p in kept if abs(signed[p]) == abs(s)]
        if same and signed[same[-1]] == -s and not any(
                abs(abs(signed[r]) - abs(s)) == 1 for r in kept if r > same[-1]):
            kept.remove(same[-1])
        else:
            kept.append(q)
    return kept


@given(gapped_words(max_strands=8, max_len=16))
def test_free_reduce_keeps_the_crossings_the_rule_keeps(w):
    kept = kept_by_the_rule(w.signed_indices())
    assert w.free_reduce().letters == tuple(w.letters[p] for p in kept)


def test_commutation():
    w = parse_word("4: 1 3 2")
    out = w.apply_braid_relation_at(0)
    assert out.signed_indices() == (3, 1, 2)
    assert out.crossing_ids() == (1, 0, 2)


def test_yang_baxter():
    w = parse_word("3: 1 2 1")
    out = w.apply_braid_relation_at(0)
    assert out.signed_indices() == (2, 1, 2)
    assert out.crossing_ids() == (0, 1, 2)
    neg = parse_word("3: -2 -1 -2").apply_braid_relation_at(0)
    assert neg.signed_indices() == (-1, -2, -1)


def test_relation_rejects_non_instances():
    with pytest.raises(MoveError):
        parse_word("3: 1 2 -1").apply_braid_relation_at(0)  # mixed signs
    with pytest.raises(MoveError):
        parse_word("3: 1 2").apply_braid_relation_at(0)  # too short
    with pytest.raises(MoveError):
        parse_word("3: 1 1").apply_braid_relation_at(0)  # same index
    with pytest.raises(MoveError):
        parse_word("3: 1 2 1").apply_braid_relation_at(5)


@given(words())
def test_relations_preserve_permutation(w):
    for pos in range(len(w.letters)):
        try:
            out = w.apply_braid_relation_at(pos)
        except MoveError:
            continue
        assert permutation(out) == permutation(w)


def test_cyclic_rotate():
    w = parse_word("3: 1 2 -1")
    assert w.cyclic_rotate(1).signed_indices() == (2, -1, 1)
    assert w.cyclic_rotate(1).crossing_ids() == (1, 2, 0)
    assert w.cyclic_rotate(3).signed_indices() == (1, 2, -1)
    assert w.cyclic_rotate(-1).signed_indices() == (-1, 1, 2)
    assert parse_word("3:").cyclic_rotate(2).letters == ()


@given(words(), st.integers(-10, 10))
def test_rotation_preserves_cycle_type(w, k):
    assert cycle_type(permutation(w.cyclic_rotate(k))) == cycle_type(permutation(w))


def test_signed_words_shortest_first():
    assert list(signed_words(3, 1)) == [(), (1,), (-1,), (2,), (-2,)]
    assert sum(1 for _ in signed_words(3, 4)) == 1 + 4 + 16 + 64 + 256
    assert list(signed_words(1, 2)) == [()]


def test_change_crossing():
    w = parse_word("3: 1 -2 1")
    out = w.change_crossing(1)
    assert out.signed_indices() == (1, 2, 1)
    assert out.crossing_ids() == (0, 1, 2)
    assert out.change_crossing(1) == w


@given(words())
def test_change_crossing_is_involution(w):
    for cid in w.crossing_ids():
        assert w.change_crossing(cid).change_crossing(cid) == w


@given(words())
def test_moves_derive_words_that_pass_the_checks(w):
    """The moves skip the constructor's checks; every word they derive would pass them."""
    derived = [w.free_reduce()]
    derived += [w.cyclic_rotate(k) for k in range(len(w.letters))]
    for pos in range(len(w.letters)):
        try:
            derived.append(w.apply_braid_relation_at(pos))
        except MoveError:
            pass
    for cid in w.crossing_ids():
        derived += [w.change_crossing(cid), w.delete_crossing(cid)]
    for m in derived:
        assert type(m) is BraidWord
        assert BraidWord(m.strand_count, m.letters) == m


def test_delete_crossing():
    w = parse_word("3: 1 -2 1")
    out = w.delete_crossing(1)
    assert out.signed_indices() == (1, 1)
    assert out.crossing_ids() == (0, 2)
    with pytest.raises(MoveError):
        out.delete_crossing(1)
