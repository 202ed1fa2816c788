"""The basepoint walk, labeling, and skein resolution."""

from __future__ import annotations

import itertools
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from braidskein import resolution
from braidskein.analysis import nugatory_scan, parity_consistency
from braidskein.homfly import DELTA, homfly_oracle, jones, to_homfly
from braidskein.resolution import (
    BudgetError,
    Label,
    _walk,
    compare_basepoints,
    label_only,
    leaf_count,
    resolution_tree,
    resolve,
    tree_vector,
)
from braidskein.skein import A, A_INV, B, NEG_A_INV_B, LaurentAB, SkeinVector
from braidskein.words import (
    BraidWord,
    WordError,
    basis_braid,
    parse_word,
    partitions_of,
    permutation,
    signed_words,
)

from test_words import gapped_words, words


# -- independent 2-strand oracle ---------------------------------------------
#
# On two strands the quotient algebra has basis {1, T} with T^2 = B*T + A,
# hence T^-1 = A^-1*T - A^-1*B.  Multiplying the word out in that basis and
# reading 1 as the two-component pattern and T as the one-component pattern
# must agree with the walk-based resolution.


def hecke2_vector(word: BraidWord) -> SkeinVector:
    assert word.strand_count == 2
    u, v = LaurentAB.one(), LaurentAB.zero()  # element u*1 + v*T
    for letter in word.letters:
        if letter.sign > 0:
            u, v = A * v, u + B * v
        else:
            u, v = v - A_INV * B * u, A_INV * u
    return SkeinVector(2, {(1, 1): u, (2,): v})


def lists(word: BraidWord) -> tuple[list[int], list[int]]:
    """The word's letter indices and signs, as the engines take them."""
    return [l.index for l in word.letters], [l.sign for l in word.letters]


def walk(word: BraidWord, basepoint: int) -> dict[tuple[int, ...], dict[int, int]]:
    """The search on the word as given, with nothing cancelled."""
    return _walk(word.strand_count, *lists(word), basepoint)


# -- independent row-scan walk -------------------------------------------------
#
# The engine's walks follow successor links.  This walker finds each next
# crossing by scanning every row of the word on every pass instead.


def scan_labels(word: BraidWord, basepoint: int) -> dict[int, Label]:
    seen: set[int] = set()
    bad: set[int] = set()
    walked: set[int] = set()
    for start in (basepoint, *range(1, word.strand_count + 1)):
        position = start
        while position not in walked:
            walked.add(position)
            for letter in word.letters:
                i, cid = letter.index, letter.crossing_id
                if position in (i, i + 1):
                    if cid not in seen and position != (i if letter.sign > 0 else i + 1):
                        bad.add(cid)
                    seen.add(cid)
                    position = i + 1 if position == i else i
    return {l.crossing_id: Label.BAD if l.crossing_id in bad else Label.GOOD
            for l in word.letters}


# -- walks ---------------------------------------------------------------------


def test_label_only_examples():
    assert label_only(parse_word("2: 1 1 1")) == {
        0: Label.GOOD, 1: Label.BAD, 2: Label.GOOD,
    }
    assert label_only(parse_word("2: 1 -1")) == {0: Label.GOOD, 1: Label.GOOD}
    assert label_only(parse_word("2: -1")) == {0: Label.BAD}
    assert label_only(parse_word("3:")) == {}


def test_basepoint_out_of_range():
    with pytest.raises(WordError):
        label_only(parse_word("2: 1"), basepoint=3)
    with pytest.raises(WordError):
        resolve(parse_word("2: 1"), basepoint=0)


@pytest.mark.parametrize("call", [resolve, label_only, resolution_tree,
                                  parity_consistency, nugatory_scan])
@pytest.mark.parametrize("word", ["3: 1 2", "6: 1 -2 3", "7: 1 -2 3"])
@pytest.mark.parametrize("basepoint", [1.5, 2.5, 1.0, "1", None])
def test_a_basepoint_that_is_not_an_int_is_rejected(call, word, basepoint):
    # the Hecke path would store a table under a float basepoint, and on
    # seven strands the search would start it from strand 1
    tables = set(resolution._TABLES)
    with pytest.raises(WordError, match=f"basepoint {basepoint!r} is not an int"):
        call(parse_word(word), basepoint)
    assert set(resolution._TABLES) == tables


def test_a_bool_basepoint_counts_as_an_int():
    w = parse_word("3: 1 -2 1")
    assert resolve(w, True) == resolve(w, 1)
    assert label_only(w, True) == label_only(w, 1)


@given(words())
def test_label_only_covers_every_crossing(w):
    assert set(label_only(w)) == set(w.crossing_ids())


@given(words())
def test_flipping_one_crossing_flips_only_its_label(w):
    base = label_only(w)
    for cid in w.crossing_ids():
        flipped = label_only(w.change_crossing(cid))
        expected = dict(base)
        expected[cid] = Label.BAD if base[cid] == Label.GOOD else Label.GOOD
        assert flipped == expected


@given(gapped_words())
@settings(deadline=None)
def test_link_walks_match_the_row_scan_at_every_basepoint(w):
    for bp in range(1, w.strand_count + 1):
        assert label_only(w, bp) == scan_labels(w, bp)
        assert resolve(w, bp) == tree_vector(resolution_tree(w, bp))


def test_idle_strands_close_as_parts_of_one():
    assert resolve(parse_word("6: 3")) == SkeinVector(6, {(2, 1, 1, 1, 1): LaurentAB.one()})
    # from an idle strand the walk starts at the smallest touched position
    assert resolve(parse_word("5: -3 2"), 5) == resolve(parse_word("5: -3 2"), 2)
    wide = resolve(parse_word("100000: 1"))
    assert wide.entries() == {(2,) + (1,) * 99998: LaurentAB.one()}


# -- resolve ---------------------------------------------------------------------


def test_resolve_trefoil():
    v = resolve(parse_word("2: 1 1 1"))
    assert v == SkeinVector(2, {(2,): A + B * B, (1, 1): A * B})
    assert v.format() == "(2): A + B^2 ; (1,1): A*B"


def test_resolve_single_crossings():
    assert resolve(parse_word("2: 1")) == SkeinVector(2, {(2,): LaurentAB.one()})
    assert resolve(parse_word("2: -1")) == SkeinVector(
        2, {(2,): A_INV, (1, 1): -(A_INV * B)}
    )


def test_resolve_descending_words():
    assert resolve(parse_word("2:")) == SkeinVector(2, {(1, 1): LaurentAB.one()})
    assert resolve(parse_word("2: 1 -1")) == SkeinVector(2, {(1, 1): LaurentAB.one()})
    assert resolve(parse_word("1:")) == SkeinVector(1, {(1,): LaurentAB.one()})


def test_resolve_is_identity_on_basis_words():
    for n in range(1, 7):
        for parts in partitions_of(n):
            v = resolve(basis_braid(parts))
            assert v == SkeinVector(n, {parts: LaurentAB.one()}), parts


@given(st.lists(st.sampled_from([1, -1]), max_size=10).map(
    lambda s: BraidWord.from_signed(2, s)))
def test_resolve_matches_two_strand_oracle(w):
    assert resolve(w) == hecke2_vector(w)


def test_resolve_can_depend_on_basepoint():
    # From strand 2 the single positive crossing is met on its under-strand,
    # so the same unknot expands differently; only the bridge image agrees.
    w = parse_word("2: 1")
    assert resolve(w, 1) == SkeinVector(2, {(2,): LaurentAB.one()})
    assert resolve(w, 2) == SkeinVector(2, {(2,): A, (1, 1): B})


@given(words(max_strands=4, max_len=8))
@settings(deadline=None)
def test_compare_basepoints_covers_all_strands(w):
    table = compare_basepoints(w)
    assert sorted(table) == list(range(1, w.strand_count + 1))
    assert table[1] == resolve(w)


@given(words(max_strands=4, max_len=8))
@settings(deadline=None)
def test_resolve_id_independent(w):
    relabeled = BraidWord(
        w.strand_count,
        tuple(l._replace(crossing_id=990 - 7 * k) for k, l in enumerate(w.letters)),
    )
    assert resolve(relabeled) == resolve(w)


# -- Hecke product against the search ------------------------------------------
#
# On up to six strands resolve multiplies the word out in the Hecke algebra
# and reads resolve(T_w) from a table; the depth-first search fills that
# table and resolves everything wider.  Both must give the same vector on
# every word, at every basepoint.


def test_hecke_path_equals_the_search_exhaustively():
    cases, wrong = 0, []
    for n, max_len in ((1, 0), (2, 7), (3, 7), (4, 5), (6, 3)):
        for signed in signed_words(n, max_len):
            word = BraidWord.from_signed(n, signed)
            for bp, vector in compare_basepoints(word).items():
                got = {parts: poly.terms() for parts, poly in vector.entries().items()}
                want = {parts: nonzero for parts, terms in walk(word, bp).items()
                        if (nonzero := {divmod(k, resolution._B_SPAN): c
                                        for k, c in terms.items() if c})}
                if got != want:
                    wrong.append((word.format(), bp))
                cases += 1
    assert cases == 1 + 2 * 255 + 3 * 21845 + 4 * 9331 + 6 * 1111
    assert wrong == []


@given(gapped_words(max_strands=6, max_len=16), st.integers(1, 6))
@settings(deadline=None)
def test_hecke_path_matches_the_tree(w, bp):
    bp = 1 + (bp - 1) % w.strand_count
    assert resolve(w, bp) == tree_vector(resolution_tree(w, bp))


@st.composite
def oracle_words(draw):
    n = draw(st.integers(3, 5))
    signed = draw(st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
                           min_size=10, max_size=14))
    return BraidWord.from_signed(n, signed)


@given(oracle_words())
@settings(deadline=None, max_examples=40)
def test_hecke_path_matches_the_oracle(w):
    # the oracle shares nothing with the search that fills the table
    assert to_homfly(resolve(w)) == homfly_oracle(w)


def test_hecke_path_covers_one_to_six_strands():
    # seven strands run the search and leave no table behind
    for n in range(1, 8):
        signed = [(-1) ** k * (1 + k % (n - 1)) for k in range(12)] if n > 1 else []
        w = BraidWord.from_signed(n, signed)
        for bp in range(1, n + 1):
            assert resolve(w, bp) == tree_vector(resolution_tree(w, bp))
        assert compare_basepoints(w)[n] == resolve(w, n)
    assert {n for n, _ in resolution._TABLES} == {1, 2, 3, 4, 5, 6}


# -- the packed product, decoded here ----------------------------------------------
#
# The product packs the coefficient on T_w into one int, balanced digits of
# width bits, digit j standing for B^(2j + p) with p the parity of the
# writhe minus l(w); A's exponent follows from the grading 2a + b + l(w) =
# writhe.  The decoder below peels one digit at a time and shares nothing
# with the package's.


def unpack(x: int, width: int) -> dict[int, int]:
    """The nonzero balanced base-2**width digits of x, {index: digit}."""
    assert width >= 2
    digits, j = {}, 0
    while x:
        d = x % (1 << width)
        if d >= 1 << (width - 1):
            d -= 1 << width
        if d:
            digits[j] = d
        x = (x - d) >> width
        j += 1
    return digits


def reference_product(n: int, signed) -> dict[tuple[int, ...], dict[tuple[int, int], int]]:
    """The word in H_n as {w: {(a, b): coeff}}, w a tuple of positions,
    multiplied out with A carried: T_lo*T_i = T_hi, T_hi*T_i = B*T_hi + A*T_lo,
    T_hi*T_i^-1 = T_lo and T_lo*T_i^-1 = A^-1*T_hi - A^-1*B*T_lo."""
    element = {tuple(range(n)): {(0, 0): 1}}
    for x in signed:
        i, out = abs(x) - 1, {}
        for w, coeff in element.items():
            ws = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            lo = w[i] < w[i + 1]
            steps = ([(ws, 0, 0, 1)] if lo else [(ws, 1, 0, 1), (w, 0, 1, 1)]) if x > 0 else \
                ([(ws, -1, 0, 1), (w, -1, 1, -1)] if lo else [(ws, 0, 0, 1)])
            for v, da, db, sign in steps:
                into = out.setdefault(v, {})
                for (a, b), c in coeff.items():
                    into[a + da, b + db] = into.get((a + da, b + db), 0) + sign * c
        element = {v: nonzero for v, coeff in out.items()
                   if (nonzero := {k: c for k, c in coeff.items() if c})}
    return element


def position_tuple(n: int, word) -> tuple[int, ...]:
    """The positions reached by swapping i and i + 1 for each letter i in turn."""
    w = list(range(n))
    for i in word:
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def decoded_product(w: BraidWord) -> dict[tuple[int, ...], dict[tuple[int, int], int]]:
    """The packed product of w, decoded with A put back from the grading."""
    n, writhe = w.strand_count, sum(letter.sign for letter in w.letters)
    words = resolution._group(n)[0]
    element, width = resolution._hecke_product(n, *lists(w))
    out = {}
    for v, x in element.items():
        rest = writhe - len(words[v])
        out[position_tuple(n, words[v])] = {
            ((rest - b) >> 1, b): c
            for j, c in unpack(x, width).items() for b in [2 * j + (rest & 1)]}
    return out


@given(st.one_of(st.just(BraidWord(1, [])), gapped_words(max_strands=6, max_len=20)))
@settings(deadline=None)
def test_hecke_product_is_graded(w):
    # the reference carries A itself, so a term off the grading 2a + b +
    # l(w) = writhe would decode to the wrong power of A; so would a digit
    # too narrow for its coefficient, also at the width a long word takes
    want = reference_product(w.strand_count, w.signed_indices())
    assert decoded_product(w) == want
    with mock.patch.object(resolution, "_SHARP_LETTERS", -1):
        assert decoded_product(w) == want
    # the 1-norm bound that width rests on
    assert sum(abs(c) for coeff in want.values() for c in coeff.values()) \
        <= resolution._norm_bound(w.strand_count, *lists(w)) <= 1 << len(w.letters)


def test_the_empty_word_reaches_only_the_identity():
    # width: no letters, plus n(n-1)/2 = 15, plus 2
    assert resolution._hecke_product(6, [], []) == ({0: 1}, 17)


@given(gapped_words(max_strands=6))
@example(BraidWord.from_signed(2, [-1, 1]))
@settings(deadline=None)
def test_hecke_product_holds_only_what_it_reaches(w):
    # each letter raises l(w) by at most one, and an entry whose terms all
    # cancel is dropped: sigma_1^-1 sigma_1 leaves A^-1*B - A^-1*B on T_{s_1}
    words = resolution._group(w.strand_count)[0]
    element, _ = resolution._hecke_product(w.strand_count, *lists(w))
    assert all(element.values())
    assert all(len(words[v]) <= len(w.letters) for v in element)


@st.composite
def digit_runs(draw):
    """A width and balanced digits of up to 2**(width - 1) - 1 in size, in
    runs of up to several hundred, often at the extremes."""
    width = draw(st.integers(2, 80))
    top = (1 << (width - 1)) - 1
    digit = st.one_of(st.integers(-top, top), st.sampled_from([-top, top, 0, 1, -1]))
    return width, draw(st.lists(digit, max_size=draw(st.sampled_from([8, 40, 600]))))


@given(digit_runs())
@example((2, [1, -1] * 300))
@example((64, [-(2 ** 63 - 1)] * 500))
@example((3005, [2 ** 3004 - 1, -(2 ** 3004 - 1)] * 200))
@settings(deadline=None)
def test_balanced_digits_round_trip(run):
    width, digits = run
    x = sum(d << width * j for j, d in enumerate(digits))
    assert resolution._digits(x, width, len(digits)) == digits
    # as the dot asks: enough digits for x's size, no fewer than it holds
    count = x.bit_length() // width + 1
    assert {j: d for j, d in enumerate(resolution._digits(x, width, count)) if d} == \
        {j: d for j, d in enumerate(digits) if d}


@pytest.mark.parametrize("sign", [1, -1])
def test_powers_of_one_generator_match_the_search(sign):
    # sigma_1^L packs its binomial coefficients into about L/2 digits; on
    # three strands the third strand is idle
    for n in (2, 3):
        for length in range(21):
            w = BraidWord.from_signed(n, [sign] * length)
            for bp in range(1, n + 1):
                assert {parts: poly.terms() for parts, poly in resolve(w, bp).entries().items()} \
                    == {parts: {divmod(k, resolution._B_SPAN): c for k, c in terms.items() if c}
                        for parts, terms in walk(w, bp).items()}


def inversions(perm: tuple[int, ...]) -> int:
    return sum(x > y for x, y in itertools.combinations(perm, 2))


@pytest.mark.parametrize("n", range(1, 7))
def test_group_walks_every_permutation_once(n):
    words, swaps, rises, odd = resolution._group(n)
    perms = [permutation(BraidWord.from_signed(n, word)) for word in words]
    assert len(set(perms)) == len(perms) == math.factorial(n)
    for word, perm, parity in zip(words, perms, odd):
        # the word is positive and reduced
        assert all(i > 0 for i in word) and inversions(perm) == len(word)
        assert parity == len(word) % 2
    assert len(swaps) == len(rises) == n - 1
    for i, (swap, rise) in enumerate(zip(swaps, rises), 1):
        assert len(swap) == len(rise) == len(words)
        for w, (partner, up) in enumerate(zip(swap, rise)):
            assert swap[partner] == w
            assert perms[partner] == permutation(BraidWord.from_signed(n, [*words[w], i]))
            assert up == (len(words[w]) < len(words[partner]))


@pytest.mark.parametrize("n", range(1, 6))
def test_class_tables_hold_each_basis_resolution(n):
    # exhaustively: at every basepoint the class of each w, read through the
    # dot, gives the search on its reduced word, T_w at writhe l(w) and B*T_w
    # at writhe l(w) + 1 (the two parities); then all of them at once, where
    # the w of a class are summed before its terms apply
    words = resolution._group(n)[0]
    for bp in range(1, n + 1):
        whole, want = {}, {}
        for w, word in enumerate(words):
            searched = {parts: {divmod(k, resolution._B_SPAN): c for k, c in terms.items() if c}
                        for parts, terms in walk(BraidWord.from_signed(n, word), bp).items()}
            for extra in (0, 1):  # B^extra * T_w
                got = resolution._dot({w: 1}, 64, len(word) + extra, n, bp).entries()
                assert {parts: poly.terms() for parts, poly in got.items()} == {
                    parts: {(a, b + extra): c for (a, b), c in terms.items()}
                    for parts, terms in searched.items()}
            # (w + 1) * A^-((l + p) / 2) * B^p * T_w at writhe 0, p = l mod 2
            p = len(word) % 2
            whole[w] = w + 1
            for parts, terms in searched.items():
                into = want.setdefault(parts, {})
                for (a, b), c in terms.items():
                    key = (a - (len(word) + p) // 2, b + p)
                    into[key] = into.get(key, 0) + (w + 1) * c
        got = resolution._dot(whole, 64, 0, n, bp).entries()
        assert {parts: poly.terms() for parts, poly in got.items()} == {
            parts: nonzero for parts, terms in want.items()
            if (nonzero := {k: c for k, c in terms.items() if c})}
        table = resolution._TABLES[n, bp]
        assert sorted(table.classes) == list(range(len(words)))
        assert len(table.terms) <= len(words)


def test_search_stops_at_its_leaf_budget(monkeypatch):
    # seven strands run the search, which pops a leaf per leaf of the tree
    w = parse_word("7: -1 -2 -3 -4 -5 -6 -1 -2 -3 -4 -5 -6")
    leaves = leaf_count(resolution_tree(w))
    monkeypatch.setattr(resolution, "_LEAF_BUDGET", leaves)
    assert resolve(w) == tree_vector(resolution_tree(w))
    monkeypatch.setattr(resolution, "_LEAF_BUDGET", leaves - 1)
    with pytest.raises(BudgetError, match=f"budget of {leaves - 1:,} leaves"):
        resolve(w)


def test_every_walk_stops_at_the_strand_budget(monkeypatch):
    monkeypatch.setattr(resolution, "_STRAND_BUDGET", 3)
    assert resolve(parse_word("3: 1 -2")) == tree_vector(resolution_tree(parse_word("3: 1 -2")))
    w = parse_word("4: 1 -2")
    for walk in (resolve, label_only, resolution_tree):
        with pytest.raises(BudgetError, match="4 strands exceed the budget of 3 strands"):
            walk(w)


def test_compare_basepoints_stops_at_the_strand_budget(monkeypatch):
    # one walk per basepoint takes n*n strand-steps, checked before any walk;
    # seven strands run the search, which calls _walk at every basepoint
    w = parse_word("7: 1 -2 3")
    monkeypatch.setattr(resolution, "_STRAND_BUDGET", 49)
    assert compare_basepoints(w) == {bp: resolve(w, bp) for bp in range(1, 8)}
    monkeypatch.setattr(resolution, "_STRAND_BUDGET", 48)
    monkeypatch.setattr(resolution, "_walk", None)
    with pytest.raises(BudgetError, match="^7 basepoints on 7 strands take 49 strand-steps, "
                                          "past the budget of 48$"):
        compare_basepoints(w)


def test_hecke_product_stops_at_its_budget(monkeypatch):
    # the charge is taken on the cancelled word, 1 2 1 2 on 3 strands: per
    # letter, the entries times the digits so far ((k >> 1) + 1 before letter
    # k), times the width of a digit, 4 + 3 + 2 bits; the entries go 1, 1, 1,
    # 1 and the last letter, on the longest permutation, makes 2
    w = parse_word("3: 1 2 1 -1 1 2 2 -2")
    assert len(w.free_reduce().letters) == 4
    charge = (1 * 1 + 1 * 1 + 1 * 2 + 1 * 2) * 9
    monkeypatch.setattr(resolution, "_HECKE_BUDGET", charge)
    assert resolve(w) == tree_vector(resolution_tree(w))
    monkeypatch.setattr(resolution, "_HECKE_BUDGET", charge - 1)
    for call in (resolve, compare_basepoints):
        with pytest.raises(BudgetError, match=f"^4 letters on 3 strands pass the Hecke product's "
                                              f"budget of {charge - 1} \\(entries times packed bits\\)$"):
            call(w)


def test_hecke_budget_charges_the_work_done(monkeypatch):
    # 505 letters on six strands that reach two entries resolve at once, where
    # a budget on letters squared times n! stopped them
    six, two = resolve(parse_word("6:" + " 1" * 505)), resolve(parse_word("2:" + " 1" * 505))
    assert six.entries() == {parts + (1,) * 4: poly for parts, poly in two.entries().items()}
    # sigma_1^L on two strands holds one entry before each of its first two
    # letters and two after, each of (k >> 1) + 1 digits before letter k; a
    # digit has 2**L's bits plus 2, or past _SHARP_LETTERS letters those of
    # the 1-norm bound, here the Fibonacci number F(L + 1), plus 2.  9,000
    # letters pass the budget (CI runs that word), 6,600 do not, and the
    # running charge stops a product as soon as it passes
    def charge(length: int, letters: int) -> int:
        fib = [0, 1]
        while len(fib) < length + 2:
            fib.append(fib[-1] + fib[-2])
        bound = fib[length + 1] if length > resolution._SHARP_LETTERS else 1 << length
        digits = sum((1 + (k >= 2)) * ((k >> 1) + 1) for k in range(letters))
        return digits * (bound.bit_length() + 2)

    assert charge(9000, 9000) > resolution._HECKE_BUDGET >= charge(6600, 6600) == 99_869_765_232
    monkeypatch.setattr(resolution, "_HECKE_BUDGET", charge(9000, 100))
    with pytest.raises(BudgetError, match="^9,000 letters on 2 strands pass"):
        resolve(parse_word("2:" + " 1" * 9000))


def test_the_norm_pass_stops_at_the_least_charge():
    # a long word's first pass stops once the charge the product would make
    # with a single entry passes the budget, before it reads the whole word:
    # sigma_1^L on two strands passes it at its 9,524th letter
    assert resolution._norm_bound(2, [1] * 9523, [1] * 9523) > 0
    for length in (9524, 1_000_000):
        with pytest.raises(BudgetError, match=f"^{length:,} letters on 2 strands pass"):
            resolution._norm_bound(2, [1] * length, [1] * length)


# -- cancelling inverse pairs ------------------------------------------------------
#
# resolve cancels each sigma_i^e against a later sigma_i^-e across letters
# that commute with sigma_i.  On one to six strands that is an identity of
# the Hecke product; on seven or more the search on the cancelled word has to
# equal the search and the tree on the word as given.


@st.composite
def planted_words(draw):
    """Words on 2-8 strands, some strands idle, holding planted pairs
    sigma_i^e ... sigma_i^-e whose letters in between commute with sigma_i."""
    n = draw(st.integers(2, 8))
    pool = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4, unique=True))

    def letters(generators, max_size):
        return st.lists(st.sampled_from(generators).flatmap(
            lambda i: st.sampled_from([i, -i])), max_size=max_size)

    signed = draw(letters(pool, 4))
    for _ in range(draw(st.integers(1, 2))):
        i, e = draw(st.sampled_from(pool)), draw(st.sampled_from([1, -1]))
        far = [j for j in pool if abs(j - i) >= 2]
        between = draw(letters(far, 2)) if far else []
        at = draw(st.integers(0, len(signed)))
        signed[at:at] = [e * i, *between, -e * i]
    return BraidWord.from_signed(n, signed)


@given(planted_words())
@settings(deadline=None)
def test_cancelled_pairs_resolve_as_the_word_as_given(w):
    assert len(w.free_reduce().letters) < len(w.letters)
    vectors = compare_basepoints(w)
    for bp in range(1, w.strand_count + 1):
        searched = resolution._search_vector(w.strand_count, *lists(w), bp)
        assert resolve(w, bp) == vectors[bp] == searched == tree_vector(resolution_tree(w, bp))


def test_labels_and_the_tree_keep_the_word_as_given():
    w = parse_word("6: 1 3 -1")
    assert set(label_only(w)) == {0, 1, 2}
    assert resolution_tree(w).word == w


def test_a_wide_word_that_cancels_is_the_unlink():
    n = 10_000
    w = BraidWord.from_signed(n, [*range(1, n), *range(1 - n, 0)])
    assert resolve(w) == SkeinVector(n, {(1,) * n: LaurentAB.one()})


# -- the search's leaf sums --------------------------------------------------------
#
# The search sums each leaf under the sizes of the components it closed, in
# walk order, and merges the orders that name one partition at the end.


def closing_order(root: BraidWord, leaf: BraidWord, basepoint: int) -> tuple[int, ...]:
    """Sizes of a leaf's components in the order the search closes them: the
    basepoint's first, then by smallest strand position, over the positions
    that the root word touches."""
    perm = permutation(leaf)
    touched = sorted({p for l in root.letters for p in (l.index, l.index + 1)})
    walked: set[int] = set()
    sizes = []
    for start in ([basepoint] if basepoint in touched else []) + touched:
        size, p = 0, start
        while p not in walked:
            walked.add(p)
            size += 1
            p = perm[p - 1]
        if size:
            sizes.append(size)
    return tuple(sizes)


def test_search_merges_the_orders_that_close_one_partition():
    # strands 1-2 and 4-5 hold split trefoils, each closing as (2) or (1,1),
    # so (2,1,1,1,1) closes in two orders from every basepoint, e.g. as
    # 2,1,1 or 1,1,2 from strand 1
    w = parse_word("6: 1 1 1 4 4 4")
    for bp in range(1, 7):
        tree = resolution_tree(w, bp)
        orders: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
        stack = [tree]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.is_leaf():
                orders.setdefault(node.leaf_partition(), set()).add(closing_order(w, node.word, bp))
        assert len(orders[2, 1, 1, 1, 1]) == 2
        assert resolve(w, bp) == tree_vector(tree)
    # at basepoint 1 the split word resolves to the product of its blocks
    closed, split = resolve(parse_word("2: 1 1 1")).entries().values()  # on (2) and (1,1)
    assert resolve(w) == SkeinVector(6, {(2, 2, 1, 1): closed * closed,
                                         (2, 1, 1, 1, 1): closed * split + split * closed,
                                         (1,) * 6: split * split})


@given(gapped_words(min_strands=6, max_strands=8, max_len=12))
@settings(deadline=None)
def test_search_equals_the_tree_on_six_to_eight_strands(w):
    # resolve multiplies six-strand words out, so the search is called itself
    for bp in range(1, w.strand_count + 1):
        searched = resolution._search_vector(w.strand_count, *lists(w), bp)
        assert resolve(w, bp) == searched == tree_vector(resolution_tree(w, bp))


# -- tree ------------------------------------------------------------------------


def test_trefoil_tree_shape():
    root = resolution_tree(parse_word("2: 1 1 1"))
    assert leaf_count(root) == 3
    flip, delete = root.children
    assert flip.edge == A
    assert delete.edge == B
    assert flip.is_leaf() and flip.leaf_partition() == (2,)
    assert flip.word.signed_indices() == (1, -1, 1)
    assert delete.word.signed_indices() == (1, 1)
    inner_flip, inner_delete = delete.children
    assert inner_flip.leaf_partition() == (1, 1)
    assert inner_delete.leaf_partition() == (2,)
    assert tree_vector(root) == resolve(parse_word("2: 1 1 1"))


def test_leaves_are_fully_labeled():
    def check(node):
        if node.is_leaf():
            assert node.good == set(node.word.crossing_ids())
        for child in node.children:
            check(child)

    check(resolution_tree(parse_word("3: 1 1 2 -1 2")))


def test_tree_stops_at_its_letter_budget(monkeypatch):
    w = parse_word("2: -1 -1 -1 -1 -1 -1")
    stack, held = [resolution_tree(w)], 0
    while stack:
        node = stack.pop()
        held += len(node.word.letters)
        stack.extend(node.children)
    monkeypatch.setattr(resolution, "_TREE_LETTER_BUDGET", held)
    assert tree_vector(resolution_tree(w)) == resolve(w)
    monkeypatch.setattr(resolution, "_TREE_LETTER_BUDGET", held - 1)
    with pytest.raises(BudgetError, match=f"budget of {held - 1} letters"):
        resolution_tree(w)


@given(words(max_strands=6, max_len=7))
@settings(deadline=None)
def test_every_subtree_is_the_tree_of_its_word(w):
    # each node walks its own word from scratch, inheriting nothing
    for bp in range(1, w.strand_count + 1):
        stack = [resolution_tree(w, bp)]
        while stack:
            node = stack.pop()
            assert resolution_tree(node.word, bp) == node._replace(edge=None)
            stack.extend(node.children)


@given(words(max_strands=4, max_len=7))
@settings(deadline=None)
def test_tree_sums_to_resolution(w):
    assert tree_vector(resolution_tree(w)) == resolve(w)


@given(words(max_strands=3, max_len=7), st.integers(1, 3))
@settings(deadline=None)
def test_tree_matches_resolve_at_every_basepoint(w, bp):
    bp = 1 + (bp - 1) % w.strand_count
    assert tree_vector(resolution_tree(w, bp)) == resolve(w, bp)


@given(words(max_strands=4, max_len=7))
@settings(deadline=None)
def test_tree_branches_at_the_bad_labels(w):
    # Following the flip child from the root meets exactly the bad crossings.
    for bp in range(1, w.strand_count + 1):
        bad = {cid for cid, label in label_only(w, bp).items() if label is Label.BAD}
        node, branched = resolution_tree(w, bp), set()
        while not node.is_leaf():
            flip, delete = node.children
            (hit,) = set(node.word.crossing_ids()) - set(delete.word.crossing_ids())
            assert hit not in node.good
            branched.add(hit)
            node = flip
        assert branched == bad


# -- values built without the constructors' checks ----------------------------


@st.composite
def words_on_one_to_eight_strands(draw):
    n = draw(st.integers(1, 8))
    if n == 1:
        return BraidWord.from_signed(1, [])
    signed = draw(st.lists(st.integers(1, n - 1).flatmap(
        lambda i: st.sampled_from([i, -i])), max_size=7))
    return BraidWord.from_signed(n, signed)


def assert_as_if_checked(value):
    """The value equals its rebuild through the public constructor, keeps
    its entries in reverse-lexicographic order and holds no zero."""
    if isinstance(value, SkeinVector):
        entries = value.entries()
        assert value == SkeinVector(value.strand_count, entries)
        assert list(entries) == sorted(entries, reverse=True)
        for poly in entries.values():
            assert poly and type(poly) is LaurentAB
            assert_as_if_checked(poly)
    else:
        terms = value.terms()
        assert value == type(value)(terms) and all(terms.values())


@given(words_on_one_to_eight_strands())
@settings(deadline=None)
def test_unchecked_values_equal_checked_ones(w):
    polys = [A, -B, LaurentAB.one() + NEG_A_INV_B]
    vectors = list(compare_basepoints(w).values())
    for bp in range(1, w.strand_count + 1):
        vector = resolve(w, bp)
        vectors += [vector, tree_vector(resolution_tree(w, bp))]
        h = to_homfly(vector)
        j = jones(h)
        for value in (h, h + h, h - h, h * DELTA, -h, j, j * j, j - j):
            assert_as_if_checked(value)
        polys += vector.entries().values()
    for vector in vectors:
        assert_as_if_checked(vector)
    for x in polys:
        for y in polys[:4]:
            for value in (x + y, x - y, x * y, -x):
                assert_as_if_checked(value)
