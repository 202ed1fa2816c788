"""
Consequences of the resolution read off from its output.

Every resolution vector carries exactly one monomial free of B, with
coefficient +1: the leaf reached by flipping every bad crossing and never
deleting.  Its A-exponent k therefore equals the number of positive bad
crossings minus the number of negative bad crossings, which ties the vector
back to the labeling pass.  A single crossing change moves one crossing
between the good and bad pools, shifting k by exactly one; so any odd
number of changes shifts k by an odd amount and must change the vector.
The per-crossing scan below applies this to every crossing of a word and
records how the output moved.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .resolution import Label, label_only, resolve
from .skein import SkeinVector
from .words import BraidWord


class MalformedVectorError(ValueError):
    """The vector does not have the unique B-free monomial shape."""


class BadCount(NamedTuple):
    positive_bad: int
    negative_bad: int


def bad_counts(word: BraidWord, basepoint: int = 1) -> BadCount:
    """Count bad crossings by sign, from a full labeling walk."""
    labels = label_only(word, basepoint)
    signs = [l.sign for l in word.letters if labels[l.crossing_id] is Label.BAD]
    return BadCount(signs.count(1), signs.count(-1))


def bfree_exponent(vector: SkeinVector) -> int:
    """A-exponent of the unique B-free monomial across all entries.

    Raises MalformedVectorError when there is no such monomial, more than
    one, or its coefficient is not +1; any of those means the vector was
    not produced by the resolution.
    """
    found: list[tuple[int, int]] = []
    for poly in vector._entries.values():
        for (a, b), c in poly._terms.items():
            if b == 0:
                found.append((a, c))
    if len(found) != 1:
        raise MalformedVectorError(
            f"expected exactly one B-free monomial, found {len(found)}"
        )
    a, c = found[0]
    if c != 1:
        raise MalformedVectorError(f"B-free monomial has coefficient {c}, not 1")
    return a


class ParityReport(NamedTuple):
    k: int
    positive_bad: int
    negative_bad: int

    @property
    def ok(self) -> bool:
        return self.k == self.positive_bad - self.negative_bad

    def format(self) -> str:
        verdict = "ok" if self.ok else "MISMATCH"
        return f"k={self.k} p={self.positive_bad} n={self.negative_bad} {verdict}"


def parity_consistency(word: BraidWord, basepoint: int = 1) -> ParityReport:
    """Cross-check the vector's B-free exponent against the label counts.

    The two sides travel independent paths: k comes out of the resolved
    vector, the counts out of the labeling pass alone.
    """
    k = bfree_exponent(resolve(word, basepoint))
    counts = bad_counts(word, basepoint)
    return ParityReport(k, counts.positive_bad, counts.negative_bad)


class CrossingChange(NamedTuple):
    """Effect of flipping one crossing on the resolution output."""

    crossing_id: int
    changed_vector: SkeinVector
    differs: bool
    bfree_delta: int


class NugatoryScanReport(NamedTuple):
    base_vector: SkeinVector
    entries: tuple[CrossingChange, ...]

    @property
    def all_differ(self) -> bool:
        return all(entry.differs for entry in self.entries)


def nugatory_scan(word: BraidWord, basepoint: int = 1) -> NugatoryScanReport:
    """Change each crossing in turn and compare outputs with the original.

    A crossing whose change preserved the output would be a candidate
    removable crossing.  The scan compares diagrams, not knot types: a
    changed output on a 3-strand word only rules out a removable crossing
    when the closure's braid index is certified to be 3 (see the bridge
    module); on stabilized words the output always moves even at a
    genuinely removable crossing.
    """
    base = resolve(word, basepoint)
    k = bfree_exponent(base)
    entries = []
    for cid in word.crossing_ids():
        changed = resolve(word.change_crossing(cid), basepoint)
        entries.append(CrossingChange(
            crossing_id=cid,
            changed_vector=changed,
            differs=changed != base,
            bfree_delta=bfree_exponent(changed) - k,
        ))
    return NugatoryScanReport(base, tuple(entries))


class OddChangeReport(NamedTuple):
    changed_word: BraidWord
    crossing_ids: tuple[int, ...]
    original_vector: SkeinVector
    changed_vector: SkeinVector

    @property
    def differs(self) -> bool:
        return self.original_vector != self.changed_vector

    @property
    def odd(self) -> bool:
        return len(self.crossing_ids) % 2 == 1

    @property
    def ok(self) -> bool:
        # An odd set of changes must move the output; even sets carry no claim.
        return self.differs if self.odd else True


def odd_change_check(word: BraidWord, ids: Iterable[int]) -> OddChangeReport:
    """Flip a set of distinct crossings and compare outputs."""
    id_list = list(ids)
    if not id_list:
        raise ValueError("need at least one crossing id")
    if len(set(id_list)) != len(id_list):
        raise ValueError("crossing ids must be distinct")
    changed = word
    for cid in id_list:
        changed = changed.change_crossing(cid)  # raises MoveError on unknown id
    return OddChangeReport(
        changed_word=changed,
        crossing_ids=tuple(sorted(id_list)),
        original_vector=resolve(word),
        changed_vector=resolve(changed),
    )
