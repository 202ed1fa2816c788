"""Flype and exchange templates and the divergence search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from braidskein import templates
from braidskein.analysis import bad_counts
from braidskein.homfly import homfly_oracle
from braidskein.resolution import BudgetError, resolve
from braidskein.templates import (
    DivergencePair,
    enumerate_exchange_instances,
    enumerate_flype_instances,
    exchange_pair,
    flype_pair,
    search_exchange_divergence,
)
from braidskein.words import BraidWord, WordError


def b2(*signed):
    return BraidWord.from_signed(2, signed)


# -- templates ----------------------------------------------------------------


def test_flype_pair_example():
    left, right = flype_pair(2, 3, 2, 1)
    assert left.format() == "3: 1 1 2 2 2 1 1 2"
    assert right.format() == "3: 1 1 2 1 1 2 2 2"


def test_flype_pair_negative_powers():
    left, right = flype_pair(1, -2, 1, -1)
    assert left.format() == "3: 1 -2 -2 1 -2"
    assert right.format() == "3: 1 -2 1 -2 -2"


def test_flype_degenerate_when_b_equals_eps():
    left, right = flype_pair(2, 1, -1, 1)
    assert left.signed_indices() == right.signed_indices()


def test_flype_stops_at_its_letter_budget(monkeypatch):
    monkeypatch.setattr(templates, "_FLYPE_LETTERS", 7)
    left, right = flype_pair(2, -3, 1, 1)
    assert len(left.letters) == len(right.letters) == 7
    with pytest.raises(BudgetError, match="^a flype side of 8 letters exceeds its budget of 7 letters$"):
        flype_pair(2, -3, -2, 1)


def test_flype_validates_eps():
    with pytest.raises(ValueError):
        flype_pair(1, 1, 1, 2)


def test_exchange_pair_example():
    pair = exchange_pair(b2(1, 1), b2(1, 1, 1))
    assert pair[0].format() == "3: 1 1 2 1 1 1 -2"
    assert pair[1].format() == "3: 1 1 -2 1 1 1 2"


def test_exchange_pair_four_strands():
    u = BraidWord.from_signed(3, [1, 2])
    v = BraidWord.from_signed(3, [2, 1])
    pair = exchange_pair(u, v)
    assert pair[0].format() == "4: 1 2 3 2 1 -3"
    assert pair[1].format() == "4: 1 2 -3 2 1 3"


def test_exchange_rejects_mismatched_blocks():
    u = BraidWord.from_signed(3, [2])
    with pytest.raises(WordError):
        exchange_pair(u, b2(1))


def test_exchange_with_empty_v_resolves_equal():
    left, right = exchange_pair(b2(1, -1, 1), b2())
    assert resolve(left) == resolve(right)


def test_enumeration_counts():
    assert len(list(enumerate_flype_instances(2))) == 5 * 5 * 5 * 2
    assert len(list(enumerate_exchange_instances(3, 2))) == 7 * 7
    assert len(list(enumerate_exchange_instances(4, 1))) == 5 * 5


# -- invariance on three strands ------------------------------------------------


@given(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
       st.sampled_from([1, -1]))
@settings(deadline=None)
def test_flype_preserves_resolution(a, b, c, eps):
    left, right = flype_pair(a, b, c, eps)
    assert resolve(left) == resolve(right)
    assert homfly_oracle(left) == homfly_oracle(right)


signed_b2 = st.lists(st.sampled_from([1, -1]), max_size=3).map(lambda s: b2(*s))


@given(signed_b2, signed_b2)
@settings(deadline=None)
def test_exchange_on_three_strands_preserves_resolution(u, v):
    left, right = exchange_pair(u, v)
    assert resolve(left) == resolve(right)
    assert homfly_oracle(left) == homfly_oracle(right)
    delta = sum(bad_counts(left)) - sum(bad_counts(right))
    assert delta % 2 == 0


# -- divergence search ------------------------------------------------------------


def test_search_is_empty_on_three_strands():
    assert search_exchange_divergence(3, 2) == []


def test_search_finds_four_strand_divergence():
    hits = search_exchange_divergence(4, 2)
    assert hits
    for hit in hits:
        assert isinstance(hit, DivergencePair)
        assert hit.left_vector != hit.right_vector
        assert hit.oracle_equal  # same link type throughout
    assert any(hit.is_knot for hit in hits)


def test_search_with_zero_block_length():
    assert search_exchange_divergence(4, 0) == []


def test_search_stops_at_its_pair_budget():
    # 1,863,225 block pairs, 16 times those of max_block_len 4: counted, not run
    with pytest.raises(BudgetError, match="budget of 150,000 block pairs"):
        search_exchange_divergence(4, 5)


def test_search_rejects_tiny_strand_counts():
    with pytest.raises(ValueError):
        search_exchange_divergence(2, 3)


def test_search_rejects_negative_block_length():
    with pytest.raises(ValueError):
        search_exchange_divergence(4, -1)
