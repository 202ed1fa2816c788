"""
From resolution vectors to the framed-link polynomial in l and m.

The bridge substitutes A = -l^-2 and B = -l^-1*m into every coefficient,
which turns the branching rule into the standard oriented skein relation
l*P(+) + l^-1*P(-) + m*P(0) = 0, and weights the entry of a partition with
m parts by delta^(m-1), where delta = -(l + l^-1)*m^-1 is the value of a
split unknotted component.  Because each branching step preserves the
polynomial exactly, no writhe correction appears anywhere.

The oracle computes the same polynomial straight from the word by its own
walk (different basepoint rule, no label persistence, own component count)
so that agreement with the bridge checks the whole resolution pipeline.
Braid-index certification reads the l-breadth bound off the polynomial:
half the breadth plus one never exceeds the braid index, so breadth 4 on a
3-strand word certifies index exactly 3.  The bound is one-sided; inputs
that fail it stay "Unknown", never "not 3".
"""

from __future__ import annotations

import enum
from math import comb

from .skein import Laurent, SkeinVector
from .words import BraidWord


class HomflyPoly(Laurent):
    """Integer Laurent polynomial in l and m; terms print ordered by
    (l exponent, m exponent), e.g. "-l^-4 - 2*l^-2"."""

    __slots__ = ()
    _variables = ("l", "m")


DELTA = HomflyPoly({(1, -1): -1, (-1, -1): -1})  # value of a split unknot


# -- bridge ----------------------------------------------------------------------


def to_homfly(vector: SkeinVector) -> HomflyPoly:
    """Evaluate a resolution vector as a polynomial in l and m."""
    total = HomflyPoly.zero()
    for parts, poly in vector.entries().items():
        subbed: dict[tuple[int, int], int] = {}
        for (a, b), c in poly.terms().items():
            # c*A^a*B^b becomes c*(-1)^(a+b) * l^(-2a-b) * m^b
            sign = -1 if (a + b) % 2 else 1
            key = (-2 * a - b, b)
            subbed[key] = subbed.get(key, 0) + sign * c
        weight = HomflyPoly.one()
        for _ in range(len(parts) - 1):
            weight = weight * DELTA
        total = total + HomflyPoly(subbed) * weight
    return total


# -- independent oracle -------------------------------------------------------------
#
# Everything below recomputes the polynomial from the raw word without the
# resolution engine: its own walk (components taken highest position first,
# labels recomputed from scratch on every recursive call), its own component
# count, and the textbook skein recursion.

_L2_NEG = HomflyPoly.monomial(-1, -2, 0)
_LM_NEG_INV = HomflyPoly.monomial(-1, -1, 1)
_L2_NEG_POS = HomflyPoly.monomial(-1, 2, 0)
_LM_NEG = HomflyPoly.monomial(-1, 1, 1)
# the oracle's own split-unknot value, deliberately not shared with DELTA
_ORACLE_SPLIT = HomflyPoly({(1, -1): -1, (-1, -1): -1})


def _oracle_components(letters: tuple[tuple[int, int], ...], n: int) -> int:
    image = list(range(n + 1))
    for i, _ in letters:
        image[i], image[i + 1] = image[i + 1], image[i]
    count = 0
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if seen[start]:
            continue
        count += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = image.index(p)
    return count


def _oracle_first_under(letters: tuple[tuple[int, int], ...], n: int) -> int | None:
    """Row of the first under-strand first encounter, walking components
    from the highest strand position downward."""
    length = len(letters)
    met: set[int] = set()
    remaining = set(range(1, n + 1))
    while remaining:
        start = max(remaining)
        tops = {start}
        pos = start
        while True:
            for row in range(length):
                i, sign = letters[row]
                if pos != i and pos != i + 1:
                    continue
                if row not in met:
                    met.add(row)
                    over = pos == i if sign > 0 else pos == i + 1
                    if not over:
                        return row
                pos = i + 1 if pos == i else i
            if pos == start:
                break
            tops.add(pos)
        remaining -= tops
    return None


def _oracle_rec(letters: tuple[tuple[int, int], ...], n: int) -> HomflyPoly:
    row = _oracle_first_under(letters, n)
    if row is None:
        value = HomflyPoly.one()
        for _ in range(_oracle_components(letters, n) - 1):
            value = value * _ORACLE_SPLIT
        return value
    i, sign = letters[row]
    flipped = letters[:row] + ((i, -sign),) + letters[row + 1:]
    deleted = letters[:row] + letters[row + 1:]
    if sign > 0:
        # l*P(+) + l^-1*P(-) + m*P(0) = 0 solved for P(+)
        return _L2_NEG * _oracle_rec(flipped, n) + _LM_NEG_INV * _oracle_rec(deleted, n)
    return _L2_NEG_POS * _oracle_rec(flipped, n) + _LM_NEG * _oracle_rec(deleted, n)


def homfly_oracle(word: BraidWord) -> HomflyPoly:
    """Polynomial of the closure, computed independently of the resolution."""
    letters = tuple((l.index, l.sign) for l in word.letters)
    return _oracle_rec(letters, word.strand_count)


# -- braid index ---------------------------------------------------------------------


def mfw_lower_bound(h: HomflyPoly) -> int:
    """Lower bound for the braid index: half the l-breadth plus one."""
    if h.is_zero():
        raise ValueError("zero polynomial has no breadth")
    exponents = [le for le, _ in h.terms()]
    breadth = max(exponents) - min(exponents)
    return (breadth + 1) // 2 + 1


class BraidIndexCertificate(enum.Enum):
    CERTIFIED = "Certified"
    UNKNOWN = "Unknown"


def certify_braid_index_3(word: BraidWord) -> BraidIndexCertificate:
    """Certify that a 3-strand closure has braid index exactly 3.

    The diagram itself bounds the index above by 3; the breadth bound
    certifies 3 from below when it reaches 3.  A verdict of Unknown means
    only that this test did not decide.
    """
    if word.strand_count != 3:
        raise ValueError(
            f"certification needs a 3-strand word, got {word.strand_count}"
        )
    if mfw_lower_bound(homfly_oracle(word)) == 3:
        return BraidIndexCertificate.CERTIFIED
    return BraidIndexCertificate.UNKNOWN


# -- Jones specialization ----------------------------------------------------------------


class JonesPoly(Laurent):
    """Integer Laurent polynomial in the square root of t.

    Keys of the term map are exponents of t^(1/2), so key 2 is t and key -1
    is t^(-1/2).  The inherited ``monomial`` and product work on exponent
    pairs only; nothing needs either for Jones polynomials.
    """

    __slots__ = ()
    _one_key = 0

    def _powers(self, e: int) -> list[str]:
        if not e:
            return []
        if e % 2:
            return [f"t^({e}/2)"]
        half = e // 2
        return ["t" if half == 1 else f"t^{half}"]

    _key_str = staticmethod(str)
    _parse_key = staticmethod(int)


def _divide_by_qinv_minus_q(poly: dict[int, int]) -> dict[int, int]:
    """Exact division by (q^-1 - q) in integer Laurent polynomials."""
    if not poly:
        return {}
    shifted = {e + 1: c for e, c in poly.items()}  # divide by q^-1*(1 - q^2)
    lo, hi = min(shifted), max(shifted)
    out: dict[int, int] = {}
    for e in range(lo, hi + 1):
        value = shifted.get(e, 0) + out.get(e - 2, 0)
        if value:
            out[e] = value
    if out.get(hi, 0) or out.get(hi - 1, 0):
        raise ValueError("polynomial is not divisible by (q^-1 - q)")
    return {e: c for e, c in out.items() if e <= hi - 2 and c}


def jones(h: HomflyPoly) -> JonesPoly:
    """Specialize with l = i*t^-1 and m = i*(t^(-1/2) - t^(1/2)).

    All arithmetic is exact in q = t^(1/2); the imaginary units cancel
    because l and m exponents always have an even sum.
    """
    terms = h.terms()
    if not terms:
        return JonesPoly()
    clear = max(0, -min(me for _, me in terms))
    numerator: dict[int, int] = {}
    for (le, me), c in terms.items():
        if (le + me) % 2:
            raise ValueError("l and m exponents must have even sum")
        sign = -1 if ((le + me) // 2) % 2 else 1
        # c * q^(-2*le) * (q^-1 - q)^(me + clear)
        k = me + clear
        for j in range(k + 1):
            e = -2 * le + 2 * j - k
            coeff = sign * c * comb(k, j) * (-1 if j % 2 else 1)
            numerator[e] = numerator.get(e, 0) + coeff
    numerator = {e: c for e, c in numerator.items() if c}
    for _ in range(clear):
        numerator = _divide_by_qinv_minus_q(numerator)
    return JonesPoly(numerator)
