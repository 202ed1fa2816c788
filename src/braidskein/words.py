"""
Braid words and the moves used on them.

A braid on n strands is a word in the generators sigma_1, ..., sigma_{n-1},
stored as a sequence of letters read top to bottom of the diagram.  Strand
positions and generator indices are 1-based throughout: sigma_i crosses the
strands currently in positions i and i+1.  The closure of a word joins each
bottom endpoint to the top endpoint of the same position around the axis.

Sign convention: at a positive letter sigma_i the strand entering at
position i passes OVER the strand entering at position i+1; at a negative
letter it passes under.  Every output of the package is tied to this choice;
the opposite choice mirrors all results.

Each letter carries a ``crossing_id``: its position in the word as parsed, or
as built by :meth:`BraidWord.from_signed`, counting from 0.  Every move
below keeps the ids of the crossings it keeps (sign changes, reordering,
deletion of other letters), and no move inserts letters, so an id names
the same crossing in every word derived from the original.

Checks run once, at the public boundary: :func:`parse_word` checks the letter
text as a whole and each value's range, and goes token by token only on a text
that fails, to name the first faulty token; :meth:`BraidWord.from_signed` the
strand count and each signed index, and the constructor (hence copy and pickle)
the strand count and each letter; the words built inside the package skip them.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence


class WordError(ValueError):
    """Malformed braid word text or inconsistent word data."""


class MoveError(ValueError):
    """A move was requested whose precondition does not hold."""


class Letter(NamedTuple):
    index: int        # generator index i of sigma_i, in [1, n-1]
    sign: int         # +1 or -1
    crossing_id: int


class _Word(NamedTuple):
    strand_count: int
    letters: tuple[Letter, ...]


class BraidWord(_Word):
    """An immutable n-strand braid word.  Only the constructor (hence copy, pickle and
    ``copy.replace``) checks it; parsing and the moves build their words unchecked."""

    __slots__ = ()

    def __new__(cls, strand_count: int, letters: Iterable[Letter]) -> BraidWord:
        letters = tuple(letters)
        _check_strand_count(strand_count)
        seen_ids = set()
        for letter in letters:
            if not isinstance(letter, Letter):
                raise WordError(f"{letter!r} is not a Letter")
            if not all(isinstance(x, int) for x in letter):
                raise WordError(f"{letter} holds a value that is not an int")
            if not 1 <= letter.index < strand_count:
                raise WordError(f"generator index {letter.index} out of range for {strand_count} strands")
            if letter.sign not in (1, -1):
                raise WordError(f"letter sign must be +1 or -1, got {letter.sign}")
            if letter.crossing_id in seen_ids:
                raise WordError(f"duplicate crossing id {letter.crossing_id}")
            seen_ids.add(letter.crossing_id)
        return super().__new__(cls, int(strand_count), letters)

    def __reduce__(self):
        return BraidWord, (self.strand_count, self.letters)

    def __replace__(self, /, **changes) -> BraidWord:
        return type(self)(*self._replace(**changes))

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_signed(strand_count: int, signed_indices: Iterable[int]) -> BraidWord:
        """Build a word from signed generator indices, numbering ids from 0."""
        signed = tuple(signed_indices)
        if 0 in signed:
            raise WordError("generator index 0 is not allowed")
        for s in signed:
            if not isinstance(s, int):
                raise WordError(f"signed index {s!r} is not an int")
        return _word(strand_count, signed, lambda k: (
            f"generator index {abs(signed[k])} out of range for {strand_count} strands"))

    # -- formatting --------------------------------------------------------

    def signed_indices(self) -> tuple[int, ...]:
        return tuple([l.index * l.sign for l in self.letters])

    def format(self) -> str:
        """Inverse of :func:`parse_word`: ``"n: i1 i2 ... ik"``."""
        if not self.letters:
            return f"{self.strand_count}:"
        body = " ".join(str(i) for i in self.signed_indices())
        return f"{self.strand_count}: {body}"

    __str__ = format

    # -- simple queries ----------------------------------------------------

    def crossing_ids(self) -> tuple[int, ...]:
        return tuple([l.crossing_id for l in self.letters])

    # -- moves -------------------------------------------------------------

    def free_reduce(self) -> BraidWord:
        """Cancel each sigma_i^e against a later sigma_i^-e across letters
        that commute with sigma_i, until no such pair remains (see
        :func:`_cancel_pairs`); the kept letters keep their ids."""
        letters = self.letters
        kept = _cancel_pairs([l.index for l in letters], [l.sign for l in letters])
        return self._make((self.strand_count, tuple([letters[k] for k in kept])))

    def apply_braid_relation_at(self, position: int) -> BraidWord:
        """Rewrite by the braid relation whose pattern starts at ``position``.

        Two patterns are recognized: a far-commutation pair sigma_i sigma_j
        with |i-j| > 1 (any signs), and a sign-coherent triple
        sigma_i sigma_{i+1} sigma_i or sigma_{i+1} sigma_i sigma_{i+1}.
        Crossing ids stay attached to their slot in the rewritten pattern.
        """
        ls = self.letters
        if not 0 <= position < len(ls):
            raise MoveError(f"position {position} out of range")
        if position + 1 < len(ls):
            x, y = ls[position], ls[position + 1]
            if abs(x.index - y.index) > 1:
                return self._make((self.strand_count, ls[:position] + (y, x) + ls[position + 2:]))
        if position + 2 < len(ls):
            x, y, z = ls[position:position + 3]
            same_sign = x.sign == y.sign == z.sign
            if same_sign and x.index == z.index and abs(x.index - y.index) == 1:
                new = (
                    Letter(y.index, x.sign, x.crossing_id),
                    Letter(x.index, y.sign, y.crossing_id),
                    Letter(y.index, z.sign, z.crossing_id),
                )
                return self._make((self.strand_count, ls[:position] + new + ls[position + 3:]))
        raise MoveError(f"no braid relation applies at position {position}")

    def cyclic_rotate(self, k: int) -> BraidWord:
        """Move the first k letters to the back (conjugation of the closure)."""
        if not self.letters:
            return self
        k %= len(self.letters)
        return self._make((self.strand_count, self.letters[k:] + self.letters[:k]))

    def change_crossing(self, crossing_id: int) -> BraidWord:
        """Flip the sign of one crossing, keeping its id."""
        ls = self.letters
        for k, (index, sign, id_) in enumerate(ls):
            if id_ == crossing_id:  # ids are unique
                flipped = tuple.__new__(Letter, (index, -sign, id_))
                return self._make((self.strand_count, ls[:k] + (flipped,) + ls[k + 1:]))
        raise MoveError(f"no crossing with id {crossing_id}")

    def delete_crossing(self, crossing_id: int) -> BraidWord:
        """Remove one crossing (the oriented smoothing of the skein relation)."""
        out = tuple([l for l in self.letters if l.crossing_id != crossing_id])
        if len(out) == len(self.letters):
            raise MoveError(f"no crossing with id {crossing_id}")
        return self._make((self.strand_count, out))


def _cancel_pairs(indices: list[int], signs: list[int]) -> Sequence[int]:
    """The positions of the letters left once each sigma_i^e has cancelled
    against a later sigma_i^-e such that every letter left between them
    commutes with sigma_i, that is, sits on a generator j with |j - i| >= 2.

    T_i*T_i^-1 = 1 and T_i*T_j = T_j*T_i for |i - j| >= 2 in the Hecke
    algebra, so the cancelled word is the same element there.  One pass
    keeps a stack of kept positions per generator: a letter cancels the top
    of its own generator's stack when that top has the other sign and
    neither neighbour generator i - 1, i + 1 has a kept letter after it.
    No pair that the rule would cancel is left: the first letter of such a
    pair would have been that top, with no neighbour after it, when the
    second came.  A word of one sign keeps every position without the pass.
    """
    if 1 not in signs or -1 not in signs:
        return range(len(indices))
    stacks: dict[int, list[int]] = {}
    kept = bytearray(b"\1") * len(indices)
    for k, i in enumerate(indices):
        stack = stacks.get(i)
        if not stack:
            stacks[i] = [k]
            continue
        top = stack[-1]
        below, above = stacks.get(i - 1), stacks.get(i + 1)
        if (signs[top] != signs[k] and not (below and below[-1] > top)
                and not (above and above[-1] > top)):
            kept[stack.pop()] = kept[k] = 0
        else:
            stack.append(k)
    return list(itertools.compress(range(len(indices)), kept))


_MAX_DIGITS = 4300  # the interpreter's default limit for text to int


def _parse_int(token: str, what: str) -> int:
    """ASCII decimal integer of at most _MAX_DIGITS digits; int() alone
    would also take other scripts' digits and underscores."""
    if token.isascii() and "_" not in token and len(token.lstrip("+-")) <= _MAX_DIGITS:
        try:
            return int(token)
        except ValueError:
            pass
    raise WordError(f"bad {what} token {token!r}")


def parse_word(text: str) -> BraidWord:
    """Parse ``"n: i1 i2 ... ik"`` into a braid word.

    ``n`` is the strand count; each ``ij`` is a nonzero ASCII integer with
    ``|ij| <= n-1``, positive for sigma_{ij} and negative for its inverse.
    Crossing ids number the letters from 0.  Inverse of
    :meth:`BraidWord.format`.  A body that fails the one-pass conversion
    goes token by token, so the first bad or out-of-range token is named.
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise WordError(f"expected 'n: letters', got {text!r}")
    n = _parse_int(head.strip(), "strand count")
    tokens = body.split()
    signed = None  # a body no longer than _MAX_DIGITS holds no longer token
    if body.isascii() and "_" not in body and (
            len(body) <= _MAX_DIGITS or max(map(len, tokens), default=0) <= _MAX_DIGITS):
        try:
            signed = list(map(int, tokens))
        except ValueError:
            pass
    if signed is None:  # name the first faulty token
        signed = (_parse_int(token, "letter") for token in tokens)
    return _word(n, signed, lambda k: f"letter {tokens[k]!r} out of range for {n} strands")


def _check_strand_count(n: int):
    if not isinstance(n, int):
        raise WordError(f"strand count {n!r} is not an int")
    if n < 1:
        raise WordError(f"strand count must be >= 1, got {n}")


def _word(n: int, signed: Iterable[int], out_of_range) -> BraidWord:
    """Range-check each signed int once and build the word unchecked; out_of_range(k) is the message."""
    _check_strand_count(n)
    new = tuple.__new__
    letters = []
    for k, s in enumerate(signed):
        if 0 < s < n:
            letters.append(new(Letter, (+s, 1, k)))
        elif 0 < -s < n:
            letters.append(new(Letter, (-s, -1, k)))
        else:
            raise WordError(out_of_range(k))
    return BraidWord._make((int(n), tuple(letters)))


def signed_words(n: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """Signed indices of every n-strand word of at most max_len letters,
    shortest first, in lexicographic order of the alphabet 1, -1, 2, -2, ..."""
    alphabet = [g * s for g in range(1, n) for s in (1, -1)]
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


# -- permutations and partitions -------------------------------------------


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Underlying permutation of the word, ignoring signs.

    Entry j-1 of the result is the bottom position reached by the strand
    entering the top at position j.
    """
    n = word.strand_count
    at = list(range(n + 1))  # at[p] = entry position of the strand now at p
    for letter in word.letters:
        i = letter.index
        at[i], at[i + 1] = at[i + 1], at[i]
    images = [0] * n
    for p in range(1, n + 1):
        images[at[p] - 1] = p
    return tuple(images)


def cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    """Non-increasing cycle lengths; the parts index closure components."""
    n = len(perm)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        size = 0
        p = start
        while not seen[p]:
            seen[p] = True
            size += 1
            p = perm[p - 1]
        lengths.append(size)
    lengths.sort(reverse=True)
    return tuple(lengths)


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, reverse-lexicographically: (n), ..., (1,...,1)."""
    if n < 1:
        raise ValueError(f"partitions_of needs n >= 1, got {n}")

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            gen(remaining - part, part, prefix + (part,))

    out: list[tuple[int, ...]] = []
    gen(n, n, ())
    return out


def basis_braid(parts: Sequence[int]) -> BraidWord:
    """The basis braid of a partition: descending blocks side by side, on
    sum(parts) strands.

    A block of size k on strands o+1..o+k is the word
    sigma_{o+k-1} ... sigma_{o+1} (top to bottom), so the block closes to a
    single unknotted component.  Blocks are laid out left to right in the
    order the parts are given; the closure's cycle type is the sorted parts.
    Empty parts, or parts that are not positive ints, raise ValueError.
    """
    if not parts or any(type(p) is not int or p < 1 for p in parts):
        raise ValueError(f"{tuple(parts)} is not a partition")
    signed = []
    offset = 0
    for part in parts:
        signed.extend(range(offset + part - 1, offset, -1))
        offset += part
    return BraidWord.from_signed(offset, signed)
