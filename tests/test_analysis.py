"""Parity of bad crossings, the B-free exponent, and crossing-change effects."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from braidskein.analysis import (
    BadCount,
    MalformedVectorError,
    bad_counts,
    bfree_exponent,
    nugatory_scan,
    odd_change_check,
    parity_consistency,
)
from braidskein.resolution import resolve
from braidskein.skein import A, B, LaurentAB, SkeinVector
from braidskein.words import MoveError, basis_braid, parse_word, partitions_of

from test_words import words


def test_bad_counts_examples():
    assert bad_counts(parse_word("2: 1 1 1")) == BadCount(1, 0)
    assert bad_counts(parse_word("2: -1")) == BadCount(0, 1)
    assert sum(bad_counts(parse_word("2: -1"))) == 1
    for parts in partitions_of(4):
        assert bad_counts(basis_braid(parts)) == BadCount(0, 0)


def test_bfree_exponent_examples():
    assert bfree_exponent(resolve(parse_word("2: 1 1 1"))) == 1
    assert bfree_exponent(resolve(parse_word("2: -1"))) == -1
    for parts in partitions_of(4):
        assert bfree_exponent(resolve(basis_braid(parts))) == 0


def test_bfree_exponent_rejects_malformed():
    with pytest.raises(MalformedVectorError):
        bfree_exponent(SkeinVector(2, {(2,): B}))  # no B-free monomial
    with pytest.raises(MalformedVectorError):
        bfree_exponent(SkeinVector(2, {(2,): A, (1, 1): LaurentAB.one()}))
    with pytest.raises(MalformedVectorError):
        bfree_exponent(SkeinVector(2, {(2,): LaurentAB({(1, 0): 2})}))


def test_parity_report_format():
    report = parity_consistency(parse_word("2: 1 1 1"))
    assert (report.k, report.positive_bad, report.negative_bad) == (1, 1, 0)
    assert report.ok
    assert report.format() == "k=1 p=1 n=0 ok"
    assert parity_consistency(parse_word("2:")).format() == "k=0 p=0 n=0 ok"


def test_parity_on_figure_eight_word():
    assert parity_consistency(parse_word("3: 1 -2 1 -2")).ok


@given(words(max_strands=3, max_len=10))
@settings(deadline=None)
def test_parity_holds_everywhere(w):
    assert parity_consistency(w).ok


@given(words(max_strands=3, max_len=8), st.integers(1, 3))
@settings(deadline=None)
def test_parity_holds_at_any_basepoint(w, bp):
    bp = 1 + (bp - 1) % w.strand_count
    assert parity_consistency(w, bp).ok


def test_nugatory_scan_figure_eight():
    report = nugatory_scan(parse_word("3: 1 -2 1 -2"))
    assert len(report.entries) == 4
    assert report.all_differ
    for entry in report.entries:
        assert entry.bfree_delta in (-1, 1)


def test_nugatory_scan_detects_diagram_change_not_knot_change():
    # The single crossing of "2: 1" is removable in the sphere, yet the scan
    # still reports "different": the outputs compare diagrams, so a removable
    # crossing can only be ruled out on braid-index-certified inputs.
    report = nugatory_scan(parse_word("2: 1"))
    assert report.all_differ
    (entry,) = report.entries
    assert entry.changed_vector == resolve(parse_word("2: -1"))


@given(words(max_strands=3, max_len=9))
@settings(deadline=None)
def test_single_changes_always_move_the_output(w):
    report = nugatory_scan(w)
    assert report.all_differ
    for entry in report.entries:
        assert entry.bfree_delta in (-1, 1)


def test_odd_change_check_validates_ids():
    w = parse_word("3: 1 -2 1 -2")
    with pytest.raises(ValueError):
        odd_change_check(w, [])
    with pytest.raises(ValueError):
        odd_change_check(w, [1, 1])
    with pytest.raises(MoveError):
        odd_change_check(w, [99])


def test_odd_change_examples():
    w = parse_word("3: 1 -2 1 -2")
    single = odd_change_check(w, [1])
    assert single.odd and single.differs and single.ok
    triple = odd_change_check(w, [1, 2, 3])
    assert triple.odd and triple.differs and triple.ok
    assert triple.changed_word.signed_indices() == (1, 2, -1, 2)


def test_even_change_carries_no_claim():
    w = parse_word("2: 1 1 1")
    report = odd_change_check(w, [0, 1])
    assert not report.odd
    assert report.ok  # ok regardless of whether the output moved


@given(words(max_strands=3, max_len=8), st.data())
@settings(deadline=None)
def test_odd_changes_move_the_output(w, data):
    ids = list(w.crossing_ids())
    if not ids:
        return
    odd_sizes = [k for k in range(1, len(ids) + 1, 2)]
    size = data.draw(st.sampled_from(odd_sizes))
    subset = data.draw(st.permutations(ids)).copy()[:size]
    report = odd_change_check(w, subset)
    assert report.odd and report.differs


@given(words(max_strands=3, max_len=8))
@settings(deadline=None)
def test_even_changes_preserve_k_parity(w):
    ids = list(w.crossing_ids())
    if len(ids) < 2:
        return
    report = odd_change_check(w, ids[:2])
    k0 = bfree_exponent(report.original_vector)
    k1 = bfree_exponent(report.changed_vector)
    assert (k1 - k0) % 2 == 0
