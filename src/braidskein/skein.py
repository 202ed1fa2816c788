"""
Exact arithmetic for resolution outputs.

Coefficients live in the ring of integer Laurent polynomials in A with an
ordinary (never inverted) variable B.  A resolution result is a finite
linear combination of partitions of the strand count over that ring; the
partition indexes the descending diagram whose closure has that cycle type.
The public constructors check their input; values built inside the package from
checked ones (arithmetic, resolution, bridge) take the unchecked ``_of``.
"""

from __future__ import annotations

from typing import Mapping


class RingDomainError(ValueError):
    """A coefficient left the ring, e.g. a negative exponent on B."""


class DimensionError(ValueError):
    """A vector was given a key that is not a partition of its strand count."""


class Laurent:
    """Sparse integer Laurent polynomial: a map from exponent keys to
    nonzero integer coefficients.

    The base class does all the arithmetic, comparison, printing and JSON on
    keys that are exponent pairs, one per name in ``_variables``.
    Subclasses declare their variable names and term order.  Values of
    different subclasses never compare equal.
    """

    __slots__ = ("_terms",)
    _variables: tuple[str, ...] = ()
    _one_key = (0, 0)

    def __init__(self, terms: Mapping = ()):
        if type(terms) is not dict:
            terms = dict(terms)  # any mapping, or (key, coeff) pairs
        for key, c in terms.items():
            if not self._is_key(key) or type(c) is not int:
                raise RingDomainError(f"{key!r}: {c!r} is not a term of {type(self).__name__}")
        self._terms = {key: c for key, c in terms.items() if c}

    @classmethod
    def _of(cls, terms: dict):
        """A value on a zero-free term map that the caller built, unchecked."""
        value = object.__new__(cls)
        value._terms = terms
        return value

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._one_key: 1})

    def terms(self) -> dict:
        """Copy of the term map {exponents: coeff}, zero-free."""
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        out = dict(self._terms)
        for key, c in other._terms.items():
            if c := out.get(key, 0) + c:
                out[key] = c
            else:
                del out[key]
        return self._of(out)

    def __neg__(self):
        return self._of({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return self._of({key: c for key, c in out.items() if c})

    # -- per-type hooks ------------------------------------------------------

    @staticmethod
    def _is_key(key) -> bool:
        return type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int

    @staticmethod
    def _term_order(term):
        return term[0]

    def _powers(self, key) -> list[str]:
        return [name if e == 1 else f"{name}^{e}"
                for name, e in zip(self._variables, key) if e]

    @staticmethod
    def _key_str(key) -> str:
        return f"{key[0]},{key[1]}"

    @staticmethod
    def _parse_key(text: str):
        first, _, second = text.partition(",")
        return int(first), int(second)

    # -- formatting ------------------------------------------------------------

    def _ordered(self) -> list:
        return sorted(self._terms.items(), key=self._term_order)

    def format(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for key, c in self._ordered():
            parts = self._powers(key)
            mag = abs(c)
            if mag != 1 or not parts:
                parts.insert(0, str(mag))
            text = "*".join(parts)
            if not pieces:
                pieces.append(f"-{text}" if c < 0 else text)
            else:
                pieces.append(f"- {text}" if c < 0 else f"+ {text}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.format()!r})"

    # -- JSON ------------------------------------------------------------------

    def to_json_dict(self) -> dict[str, int]:
        """Exponent keys as strings, in the format() term order."""
        return {self._key_str(key): c for key, c in self._ordered()}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, int]):
        return cls({cls._parse_key(key): int(c) for key, c in data.items()})


class LaurentAB(Laurent):
    """sum(c * A^a * B^b) with integer c, any a, b >= 0; terms print ordered
    by (b exponent, A exponent)."""

    __slots__ = ()
    _variables = ("A", "B")

    def __init__(self, terms: Mapping[tuple[int, int], int] = ()):
        super().__init__(terms)
        for _, b in self._terms:
            if b < 0:
                raise RingDomainError(f"negative exponent {b} on B")

    @staticmethod
    def _term_order(term):
        (a, b), _ = term
        return b, a


A = LaurentAB({(1, 0): 1})
A_INV = LaurentAB({(-1, 0): 1})
B = LaurentAB({(0, 1): 1})
NEG_A_INV_B = LaurentAB({(-1, 1): -1})


def partition_str(parts: tuple[int, ...]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


class SkeinVector:
    """A linear combination of partitions of ``strand_count`` over LaurentAB.

    Zero coefficients are dropped on construction, so equal combinations
    compare equal.  Entries are kept in reverse-lexicographic partition
    order, largest part first.
    """

    __slots__ = ("strand_count", "_entries")

    def __init__(self, strand_count: int, entries: Mapping[tuple[int, ...], LaurentAB] = ()):
        entries = dict(entries)
        for parts in sorted(entries, reverse=True):
            if type(entries[parts]) is not LaurentAB:
                raise RingDomainError(f"coefficient {entries[parts]!r} of {parts} is not a LaurentAB")
            # non-increasing, positive and summing to strand_count
            if (sum(parts) != strand_count or sorted(parts, reverse=True) != [*parts]
                    or (parts and parts[-1] < 1)):
                raise DimensionError(
                    f"{parts} is not a partition of {strand_count}"
                )
        self.strand_count = strand_count
        self._entries = {p: entries[p] for p in sorted(entries, reverse=True) if entries[p]}

    @classmethod
    def _of(cls, strand_count: int, entries: dict[tuple[int, ...], LaurentAB]) -> SkeinVector:
        """Like the constructor, on entries keyed by partitions of strand_count, unchecked."""
        vector = object.__new__(cls)
        vector.strand_count = strand_count
        vector._entries = {p: entries[p] for p in sorted(entries, reverse=True) if entries[p]}
        return vector

    @staticmethod
    def singleton(strand_count: int, parts: tuple[int, ...]) -> SkeinVector:
        """The basis vector of one partition: coefficient 1 on ``parts``."""
        return SkeinVector(strand_count, {tuple(parts): LaurentAB.one()})

    def entries(self) -> dict[tuple[int, ...], LaurentAB]:
        return dict(self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkeinVector)
            and self.strand_count == other.strand_count
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.strand_count, frozenset(self._entries.items())))

    def __add__(self, other: SkeinVector) -> SkeinVector:
        if self.strand_count != other.strand_count:
            raise DimensionError(
                f"cannot combine vectors on {self.strand_count} and "
                f"{other.strand_count} strands"
            )
        out = dict(self._entries)
        for parts, poly in other._entries.items():
            out[parts] = out.get(parts, LaurentAB.zero()) + poly
        return SkeinVector._of(self.strand_count, out)

    def scale(self, factor: LaurentAB) -> SkeinVector:
        return SkeinVector._of(
            self.strand_count,
            {parts: factor * poly for parts, poly in self._entries.items()},
        )

    def format(self) -> str:
        """E.g. ``"(2): A + B^2 ; (1,1): A*B"``; the zero vector is ``"0"``."""
        if not self._entries:
            return "0"
        return " ; ".join(
            f"{partition_str(parts)}: {poly.format()}"
            for parts, poly in self._entries.items()
        )

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"SkeinVector({self.strand_count}, {self.format()!r})"

    def to_json_dict(self) -> dict[str, dict[str, int]]:
        """Partition keys are comma-joined parts, e.g. "1,1"."""
        return {
            ",".join(str(p) for p in parts): poly.to_json_dict()
            for parts, poly in self._entries.items()
        }

    @staticmethod
    def from_json_dict(strand_count: int, data: Mapping[str, Mapping[str, int]]) -> SkeinVector:
        entries = {}
        for key, poly in data.items():
            parts = tuple(int(p) for p in key.split(","))
            entries[parts] = LaurentAB.from_json_dict(poly)
        return SkeinVector(strand_count, entries)

