"""
Word-level move templates relating closed braids of the same link type.

Two families are instantiated here.  The three-strand flype swaps the
power block sitting in the second-generator slot with the lone crossing
that closes the template.  The exchange move conjugates the top generator
between two blocks braided on the lower strands.  Both moves preserve the
closure's link type, so any template bug is self-detecting: emitted pairs
are cross-checked against the independent polynomial oracle.

On three strands both moves also preserve the resolution output itself.
On four strands the exchange move does not, and the search below
enumerates block pairs to exhibit that divergence.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .homfly import homfly_oracle
from .resolution import BudgetError, resolve
from .skein import SkeinVector
from .words import BraidWord, WordError, cycle_type, permutation, signed_words


def _power_block(index: int, power: int) -> list[int]:
    step = index if power > 0 else -index
    return [step] * abs(power)


# letters that one flype side may have: resolving a side takes time quadratic
# in its length, 0.7 s at 2,001 letters and 3.8-4.9 s at 3,001
_FLYPE_LETTERS = 3_000


def flype_pair(a: int, b: int, c: int, eps: int) -> tuple[BraidWord, BraidWord]:
    """The two sides of the three-strand flype with power blocks a, b, c
    and a lone crossing of sign eps, which must be +1 or -1.

    Left side: s1^a s2^b s1^c s2^eps.  Right side swaps the b-block and the
    eps crossing: s1^a s2^eps s1^c s2^b.  Closures are the same link.  Sides
    of more than :data:`_FLYPE_LETTERS` letters raise :class:`BudgetError`.
    """
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    if (letters := abs(a) + abs(b) + abs(c) + 1) > _FLYPE_LETTERS:
        raise BudgetError(f"a flype side of {letters:,} letters exceeds its budget of "
                          f"{_FLYPE_LETTERS:,} letters")
    left = _power_block(1, a) + _power_block(2, b) + _power_block(1, c) + [2 * eps]
    right = _power_block(1, a) + [2 * eps] + _power_block(1, c) + _power_block(2, b)
    return BraidWord.from_signed(3, left), BraidWord.from_signed(3, right)


def exchange_pair(u: BraidWord, v: BraidWord) -> tuple[BraidWord, BraidWord]:
    """The two sides of the exchange move on n = u.strand_count + 1 strands.

    Left: u s_{n-1} v s_{n-1}^{-1}.  Right: u s_{n-1}^{-1} v s_{n-1}.  The
    blocks u and v lie on the same lower n-1 strands, so neither can use
    the exchanged generator n-1; a WordError reports blocks on different
    strand counts.
    """
    if u.strand_count != v.strand_count:
        raise WordError("blocks u and v must have the same strand count")
    top = u.strand_count
    left = [*u.signed_indices(), top, *v.signed_indices(), -top]
    right = [*u.signed_indices(), -top, *v.signed_indices(), top]
    return BraidWord.from_signed(top + 1, left), BraidWord.from_signed(top + 1, right)


def enumerate_flype_instances(max_power: int) -> Iterator[tuple[int, int, int, int]]:
    """All arguments (a, b, c, eps) of :func:`flype_pair` with
    |a|, |b|, |c| <= max_power and eps = +-1."""
    span = range(-max_power, max_power + 1)
    yield from itertools.product(span, span, span, (1, -1))


def enumerate_exchange_instances(n: int, max_block_len: int) -> Iterator[tuple[BraidWord, BraidWord]]:
    """All block pairs (u, v) for n-strand exchange, the arguments of
    :func:`exchange_pair`, with |u|, |v| <= max_block_len."""
    blocks = [BraidWord.from_signed(n - 1, signed) for signed in signed_words(n - 1, max_block_len)]
    yield from itertools.product(blocks, repeat=2)


# block pairs that one search may resolve: --max-len 4 on four strands makes
# 116,281 (70 s on one core), and each further letter about 16 times more
_PAIR_BUDGET = 150_000


class DivergencePair(NamedTuple):
    """An exchange-related pair whose resolution outputs differ."""

    left: BraidWord
    right: BraidWord
    left_vector: SkeinVector
    right_vector: SkeinVector
    oracle_equal: bool  # same link type double-checked by the polynomial
    is_knot: bool       # single closure component


def search_exchange_divergence(n: int = 4, max_block_len: int = 3) -> list[DivergencePair]:
    """Find exchange pairs whose resolution outputs differ.

    On three strands the list is empty for every bound tried; on four
    strands small blocks already produce hits.  Every hit is re-verified to
    have equal oracle polynomials, so a diverging pair still closes to the
    same link and the divergence is a property of the resolution, not of
    the link type.  Past :data:`_PAIR_BUDGET` block pairs it raises
    :class:`BudgetError` before it resolves any.
    """
    if n < 3:
        raise ValueError("exchange needs at least 3 strands")
    if max_block_len < 0:
        raise ValueError(f"block length bound must be >= 0, got {max_block_len}")
    blocks = 0
    for length in range(max_block_len + 1):
        blocks += (2 * n - 4) ** length  # blocks of this length on n - 1 strands
        if blocks * blocks > _PAIR_BUDGET:
            raise BudgetError(f"exchange search exceeds its budget of {_PAIR_BUDGET:,} block pairs")
    hits = []
    for u, v in enumerate_exchange_instances(n, max_block_len):
        left, right = exchange_pair(u, v)
        left_vector = resolve(left)
        right_vector = resolve(right)
        if left_vector == right_vector:
            continue
        hits.append(DivergencePair(
            left=left,
            right=right,
            left_vector=left_vector,
            right_vector=right_vector,
            oracle_equal=homfly_oracle(left) == homfly_oracle(right),
            is_knot=len(cycle_type(permutation(left))) == 1,
        ))
    return hits
