"""
From resolution vectors to the framed-link polynomial in l and m.

The bridge substitutes A = -l^-2 and B = -l^-1*m into every coefficient,
which turns the branching rule into the standard oriented skein relation
l*P(+) + l^-1*P(-) + m*P(0) = 0, and weights the entry of a partition with
m parts by delta^(m-1), where delta = -(l + l^-1)*m^-1 is the value of a
split unknotted component.  Because each branching step preserves the
polynomial exactly, no writhe correction appears anywhere.

Every polynomial the package reports comes through the bridge.  The oracle
is only a cross-check: it computes the same polynomial straight from the
word by its own walk (different basepoint rule, no label persistence, own
component count), so that agreement with the bridge checks the whole
resolution pipeline.  Braid-index certification reads the l-breadth bound
off the bridge image: half the breadth plus one never exceeds the braid
index, so breadth 4 on a 3-strand word certifies index exactly 3.  The
bound is one-sided; inputs that fail it stay "Unknown", never "not 3".
"""

from __future__ import annotations

import enum
from collections import defaultdict

from .resolution import BudgetError, resolve
from .skein import Laurent, SkeinVector
from .words import BraidWord


class HomflyPoly(Laurent):
    """Integer Laurent polynomial in l and m; terms print ordered by
    (l exponent, m exponent), e.g. "-l^-4 - 2*l^-2"."""

    __slots__ = ()
    _variables = ("l", "m")


DELTA = HomflyPoly({(1, -1): -1, (-1, -1): -1})  # value of a split unknot
# parts that one vector entry may have: an entry of k parts takes DELTA^(k-1),
# k terms whose coefficients have up to 0.3*k digits, so the printed form
# grows like k^2; at 5,000 parts it prints 5.5 MB in 0.14 s, at 16,000 56 MB
# in 4 s, while the strand budget lets entries reach 10,000,000 parts
_BRIDGE_PARTS = 5_000


# -- bridge ----------------------------------------------------------------------


def to_homfly(vector: SkeinVector) -> HomflyPoly:
    """Evaluate a resolution vector as a polynomial in l and m.

    Substituted entries are summed per component count k into P_k.  The k
    coefficients of DELTA^(k-1) over DELTA's terms x, y, its row, are built
    once per k, each from the next by their ratio, and lie on one line of
    step x/y; each term of P_k adds its multiple of the row along that
    line.  So the bridge costs k big-int steps per row and sum_k |P_k| * k
    term products, and builds one polynomial.  An entry of more than
    :data:`_BRIDGE_PARTS` parts raises :class:`BudgetError`.
    """
    by_count: dict[int, dict[tuple[int, int], int]] = {}
    for parts, poly in vector._entries.items():
        if len(parts) > _BRIDGE_PARTS:
            raise BudgetError(f"an entry of {len(parts):,} parts exceeds the bridge's "
                              f"budget of {_BRIDGE_PARTS:,} parts")
        subbed = by_count.setdefault(len(parts), {})
        for (a, b), c in poly._terms.items():
            # c*A^a*B^b becomes c*(-1)^(a+b) * l^(-2a-b) * m^b
            key = (-2 * a - b, b)
            subbed[key] = subbed.get(key, 0) + (-c if (a + b) % 2 else c)
    ((xl, xm), cx), *rest = DELTA._terms.items()
    (((yl, ym), cy),) = rest or [((0, 0), 0)]  # a monomial DELTA has y = 0
    sl, sm = xl - yl, xm - ym  # the step from y^(e-j)*x^j to y^(e-j-1)*x^(j+1)
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for k, subbed in by_count.items():
        e = k - 1
        row = [cx**e]  # C(e, j) * cx^j * cy^(e-j), each from the next by their ratio
        for j in range(e, 0, -1):
            row.append(row[-1] * (cy * j) // ((e - j + 1) * cx))
        row.reverse()
        for (le, me), c in subbed.items():  # c * row, along the line from y^e
            le, me = le + e * yl, me + e * ym
            for d in row:
                key = (le, me)
                out[key] = get(key, 0) + c * d
                le, me = le + sl, me + sm
    return HomflyPoly._of({key: c for key, c in out.items() if c})


def _binomials(k: int) -> list[int]:
    """C(k, 0), ..., C(k, k), each from the one before by their running ratio."""
    row = [1]
    for j in range(k):
        row.append(row[-1] * (k - j) // (j + 1))
    return row


# -- independent oracle -------------------------------------------------------------
#
# Everything below recomputes the polynomial from the raw word without the
# resolution engine: its own walk (components taken highest position first,
# labels recomputed from scratch for every diagram), which also counts the
# components of a descending diagram, and the skein relation on an explicit
# stack of diagrams, each with the monomial the relation put on its path.

# the oracle's own split-unknot value, deliberately not shared with DELTA
_ORACLE_SPLIT = HomflyPoly({(1, -1): -1, (-1, -1): -1})
# diagrams that one oracle call may pop: criterion 8 pops at most 149 per
# word and the exchange search at --max-len 4 at most 387; at 4-10 us a
# diagram on words of 18-26 letters, the budget takes 4-10 s
_ORACLE_BUDGET = 1_000_000


def _oracle_walk(letters: tuple[tuple[int, int], ...], n: int) -> tuple[int | None, int]:
    """Row of the first under-strand first encounter, walking components
    from the highest strand position downward, and the number of components
    walked; the row is None when every crossing is first met over."""
    met: set[int] = set()
    walked: set[int] = set()
    components = 0
    for start in range(n, 0, -1):
        if start in walked:
            continue
        components += 1
        pos = start
        while pos not in walked:  # until the component closes up at start
            walked.add(pos)
            for row, (i, sign) in enumerate(letters):
                if pos != i and pos != i + 1:
                    continue
                if row not in met:
                    met.add(row)
                    if (pos == i) != (sign > 0):  # first met on the under-strand
                        return row, components
                pos = i + 1 if pos == i else i
    return None, components


def homfly_oracle(word: BraidWord) -> HomflyPoly:
    """Polynomial of the closure, computed independently of the resolution.
    Past :data:`_ORACLE_BUDGET` diagrams it raises :class:`BudgetError`."""
    sums: dict[int, dict[tuple[int, int], int]] = {}
    stack = [(tuple([(l.index, l.sign) for l in word.letters]), 1, 0, 0)]
    popped = 0
    while stack:
        popped += 1
        if popped > _ORACLE_BUDGET:
            raise BudgetError(f"oracle exceeds its budget of {_ORACLE_BUDGET:,} diagrams")
        letters, c, le, me = stack.pop()
        row, components = _oracle_walk(letters, word.strand_count)
        if row is None:
            leaf = sums.setdefault(components, {})
            leaf[le, me] = leaf.get((le, me), 0) + c
            continue
        i, sign = letters[row]
        # l*P(+) + l^-1*P(-) + m*P(0) = 0 solved for the crossing's own sign
        stack.append((letters[:row] + ((i, -sign),) + letters[row + 1:], -c, le - 2 * sign, me))
        stack.append((letters[:row] + letters[row + 1:], -c, le - sign, me + 1))
    total = HomflyPoly.zero()
    for k, leaf in sums.items():
        value = HomflyPoly(leaf)
        for _ in range(k - 1):
            value = value * _ORACLE_SPLIT
        total = total + value
    return total


# -- braid index ---------------------------------------------------------------------


def mfw_lower_bound(h: HomflyPoly) -> int:
    """Lower bound for the braid index: half the l-breadth plus one."""
    if not h:
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
    if mfw_lower_bound(to_homfly(resolve(word))) == 3:
        return BraidIndexCertificate.CERTIFIED
    return BraidIndexCertificate.UNKNOWN


# -- Jones specialization ----------------------------------------------------------------


class JonesPoly(Laurent):
    """Integer Laurent polynomial in the square root of t.

    Keys of the term map are exponents of t^(1/2), so key 2 is t and key -1
    is t^(-1/2); the product and the JSON keys work on these int keys.
    """

    __slots__ = ()
    _one_key = 0

    def __mul__(self, other: JonesPoly) -> JonesPoly:
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return self._of({e: c for e, c in out.items() if c})

    def _powers(self, e: int) -> list[str]:
        if not e:
            return []
        if e % 2:
            return [f"t^({e}/2)"]
        half = e // 2
        return ["t" if half == 1 else f"t^{half}"]

    @staticmethod
    def _is_key(key) -> bool:
        return type(key) is int

    _key_str = staticmethod(str)
    _parse_key = staticmethod(int)


def jones(h: HomflyPoly) -> JonesPoly:
    """Specialize with l = i*t^-1 and m = i*(t^(-1/2) - t^(1/2)).

    All arithmetic is exact in q = t^(1/2); the imaginary units cancel
    because l and m exponents always have an even sum.

    The domain is the polynomial of a link: a sum of P_k*DELTA^(k-1), where
    no P_k has a negative power of m.  DELTA^(k-1) = (-u)^(k-1)*m^(1-k) with
    u = l + l^-1, so each group m^-c * f(l) of such a sum is divisible by
    u^c.  A term of m-degree e >= 0 is expanded against (q^-1 - q)^e.  From
    each group, f(l)*l^c, a polynomial in y = l^2, is divided by (1 + y)^c
    from the top, and since m^-c * u^c maps to (q + q^-1)^c, each quotient
    term is expanded against that.  A group that leaves a remainder, which
    no link's polynomial has, raises ValueError.
    """
    out: dict[int, int] = {}
    groups: dict[int, dict[int, int]] = defaultdict(dict)
    for (le, me), x in h._terms.items():
        if (le + me) % 2:
            raise ValueError("l and m exponents must have even sum")
        if me < 0:
            groups[-me][le] = x
            continue
        # x*l^le*m^me maps to x*(-1)^((le+me)/2) * q^(-2*le) * (q^-1 - q)^me
        signed = -x if ((le + me) // 2) % 2 else x
        for j, b in enumerate(_binomials(me)):
            key = 2 * j - me - 2 * le
            out[key] = out.get(key, 0) + (-signed * b if j % 2 else signed * b)
    for c, f in groups.items():
        row = _binomials(c)
        lo = (min(f) + c) // 2
        ys = [0] * ((max(f) + c) // 2 - lo + 1)
        for le, x in f.items():
            ys[(le + c) // 2 - lo] = x
        for d in range(len(ys) - 1, c - 1, -1):
            top = ys[d]
            if not top:
                continue
            # top*y^e*u^c*m^-c maps to top*(-1)^e*q^(-4e)*(q + q^-1)^c
            e = lo + d - c
            signed = -top if e % 2 else top
            for j, b in enumerate(row):
                ys[d - c + j] -= top * b
                key = c - 2 * j - 4 * e
                out[key] = out.get(key, 0) + signed * b
        if any(ys[:c]):
            raise ValueError(f"the m^-{c} part is not divisible by (l + l^-1)^{c}")
    return JonesPoly._of({key: c for key, c in out.items() if c})
