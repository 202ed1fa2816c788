"""
Resolving a closed braid diagram into descending pieces.

A basepoint walk travels down the braid along the strand, wrapping from
each bottom endpoint back to the matching top endpoint, and moves to the
next unvisited strand position when a component closes up.  A crossing met
for the first time on its over-strand is labeled good and never touched; a
crossing met first on its under-strand is bad.  Resolution branches at the
first bad crossing: flipping it contributes a factor A (positive crossing)
or A^-1 (negative), deleting it contributes B or -A^-1*B, and the two child
diagrams are resolved further.  Leaves are fully labeled and therefore
descending; each leaf closes to the unlink pattern named by its cycle type.

The walk is stated twice, and both statements follow successor links
(:func:`_links`), so a pass costs the rows it crosses, not the whole word.
:func:`_walk` runs it as a depth-first search that continues in place past
each branch point, carrying each path's monomial c*A^a*B^b as c, a and b;
strands that no crossing touches close at once as parts of size 1.  Each
leaf adds c at (a, b) in a bucket keyed by the sizes of the components it
closed, in walk order; each distinct order is sorted into its partition
once, after the search, where the buckets of one partition merge.  The
generator :func:`_first_unders` runs it plainly, yielding each bad crossing
as the walk reaches it; :func:`label_only` reads all of it, and
:func:`resolution_tree` runs it from scratch on each node up to the node's
first bad crossing, retracing the parent's path to the branch crossing: the
tree is the reference that :func:`resolve` is tested against.  Both stop at
a budget: the search at :data:`_LEAF_BUDGET` leaves, and the tree, which
keeps every node's word, at :data:`_TREE_LETTER_BUDGET` letters.

The search costs a leaf per descending diagram, exponentially many in the
word length.  Flip and delete are the relation sigma_i = A*sigma_i^-1 + B,
which is T_i^2 = B*T_i + A in the Hecke algebra H_n, and the resolution
agrees with a linear functional on H_n: on every word the tests try, at
every basepoint, it equals the element the word multiplies out to, dotted
with the resolutions of the basis elements T_w.  So on up to
:data:`_HECKE_MAX_STRANDS` strands :func:`resolve` multiplies the word out
letter by letter (:func:`_hecke_product`), each step costing the T_w the
element has reached rather than a leaf per diagram.  The element is graded,
2a + b + l(w) equal to the writhe on each monomial A^a*B^b of T_w, so b
fixes a, and all b on one T_w share a parity: each coefficient is one int,
every other B-degree a digit of a fixed width.  A letter moves each int to
its partner and shifts and adds some of them, with no loop over the terms.
The dot (:func:`_dot`) reads resolve(T_w) from a table that the search fills
once, on the reduced positive word by which :func:`_group` first reaches w
from the identity (every reduced word of w multiplies out to the same T_w,
so the choice does not matter), and merges into one class the w whose terms
add alike to a packed coefficient.  At basepoint 1, where the resolution is a
trace on H_n (Geck & Pfeiffer, Adv. Math. 102, 1993), the classes are far
fewer than n!: 91 of 720 on six strands, against 148-220 elsewhere.  It sums
the ints of each class, applies each class's terms once and decodes the
digits at the end.  The tables through six strands take 3.1 MB when full; a
seventh strand alone would have 5040 basis elements, so wider words keep the
search.  Each letter charges its entries times the bits of a packed
coefficient, and the product stops at :data:`_HECKE_BUDGET`.

:func:`resolve` and :func:`compare_basepoints` share one path to either
engine (:func:`_resolved`), which cancels each letter against a later
inverse letter across letters that commute with it, in one linear pass over
the engines' index and sign lists (:meth:`BraidWord.free_reduce` runs it
too).  That is an identity in H_n (Jones, Ann. Math. 126, 1987), so on up
to six strands it holds by construction, and on seven or more the search on
the cancelled word equals the search on the word as given on every word the
tests try, at every basepoint.  The labels and the tree show the diagram's
own crossings, and :func:`_walk` takes the word as given, so it stays the
reference for both engines.
"""

from __future__ import annotations

import enum
import functools
from typing import Iterator, NamedTuple, Sequence

from .skein import A, A_INV, B, NEG_A_INV_B, LaurentAB, SkeinVector
from .words import BraidWord, Letter, WordError, _cancel_pairs, cycle_type, permutation


class Label(enum.Enum):
    GOOD = "good"
    BAD = "bad"


def _check_basepoint(word: BraidWord, basepoint: int):
    if word.strand_count > _STRAND_BUDGET:
        raise BudgetError(
            f"{word.strand_count} strands exceed the budget of {_STRAND_BUDGET:,} strands"
        )
    if not isinstance(basepoint, int):
        raise WordError(f"basepoint {basepoint!r} is not an int")
    if not 1 <= basepoint <= word.strand_count:
        raise WordError(
            f"basepoint {basepoint} out of range for {word.strand_count} strands"
        )


def _links(indices: tuple[int, ...], n: int) -> tuple[list[int], list[int]]:
    """Successor links of a word, built in one bottom-up pass.

    Link ``2*r + s`` is a strand about to meet row r on position
    ``indices[r] + s``, and link ``2*len(indices) + p`` one that left the
    bottom on position p.  A strand entering the top on position p is at
    ``first[p]``; past row r, one on position ``indices[r] + s`` is at
    ``after[2*r + s]``, so crossing row r at link l leads to ``after[l ^ 1]``.
    """
    end = 2 * len(indices)
    first = list(range(end, end + n + 2))
    after = [0] * end
    for link, i in zip(range(end - 2, -1, -2), reversed(indices)):  # bottom row first; link = 2*row
        after[link], after[link + 1] = first[i], first[i + 1]
        first[i], first[i + 1] = link, link + 1
    return first, after


def _first_unders(word: BraidWord, basepoint: int, seen: set[int]) -> Iterator[Letter]:
    """Walk the whole closure and yield each crossing first met on its
    under-strand, before crossing it.

    ``seen`` starts empty and records the crossings met so far: one met on
    its over-strand joins it at once, a yielded one when the walk resumes.
    Each time a component closes, the walk restarts at the smallest strand
    position not yet walked.
    """
    letters = word.letters
    end = 2 * len(letters)
    indices, signs, ids = zip(*letters) if letters else ((), (), ())
    first, after = _links(indices, word.strand_count)
    walked: set[int] = set()
    for start in (basepoint, *range(1, word.strand_count + 1)):
        position = start
        while position not in walked:
            walked.add(position)
            link = first[position]
            while link < end:
                row = link >> 1
                if ids[row] not in seen:
                    # the over-strand enters a positive crossing on side 0
                    if link & 1 == (signs[row] > 0):
                        yield letters[row]
                    seen.add(ids[row])
                link = after[link ^ 1]
            position = link - end


def label_only(word: BraidWord, basepoint: int = 1) -> dict[int, Label]:
    """Label every crossing good or bad without resolving anything, in
    word order."""
    _check_basepoint(word, basepoint)
    bad = (letter.crossing_id for letter in _first_unders(word, basepoint, set()))
    return {**dict.fromkeys(word.crossing_ids(), Label.GOOD), **dict.fromkeys(bad, Label.BAD)}


# -- depth-first walk ---------------------------------------------------------

_UNSEEN, _GOOD, _GONE = 0, 1, 2
# leaves that one search may pop: 5,000 random seven-strand words of 18-21
# letters, cancelled as resolve cancels them, reached at most 20,912 (median
# 222) from basepoint 1; at 2.2-3.0 us a leaf (2 cores) this takes 3-4 s
_LEAF_BUDGET = 1_200_000
# letters that the node words of one tree may hold between them: the tree
# of 2: -1 x21 (28,657 leaves) holds 689,587, that of x22 1,167,051
_TREE_LETTER_BUDGET = 1_000_000
# strands of one word: the walks take time and memory linear in the strand
# count, and on 10,000,000 strands resolve took 5.3 s and 0.8 GB, tree (the
# slowest) 8.4 s and 1.2 GB; past 2**63 they overflow a C index.  It also
# bounds compare_basepoints, a walk per basepoint, at n*n strand-steps
_STRAND_BUDGET = 10_000_000


class BudgetError(ValueError):
    """A resolution would take more work than its budget allows."""


def _vector(n: int, totals: dict[tuple[int, ...], dict[tuple[int, int], int]]) -> SkeinVector:
    """The vector of {partition: {(a, b): coeff}}, dropping zero coefficients."""
    return SkeinVector._of(n, {parts: LaurentAB._of({k: c for k, c in terms.items() if c})
                               for parts, terms in totals.items()})


def _walk(n: int, indices: list[int], signs: list[int],
          basepoint: int) -> dict[tuple[int, ...], dict[tuple[int, int], int]]:
    """The resolution of the n-strand word with these letter indices and
    signs as {partition: {(a, b): coeff}}, the coefficient of A^a*B^b, by a
    depth-first search that continues in place past each branch point.

    Each leaf adds its path's sign c at (a, b) in a bucket keyed by the
    linked list of the sizes it closed, in walk order; once the search ends,
    each distinct list becomes its partition (parts sorted, idle strands
    appended) and buckets that name the same partition merge.  Past
    :data:`_LEAF_BUDGET` leaves it raises :class:`BudgetError`."""
    positive = [sign > 0 for sign in signs]
    length = len(indices)
    end = 2 * length
    first, after = _links(indices, n)
    cross = after[:]  # past row link >> 1, crossing it: after[link ^ 1]
    cross[::2], cross[1::2] = after[1::2], after[::2]
    # idle strands close at once; the walk visits the touched ones, by rank
    touched = [p for p in range(1, n + 1) if first[p] < end]
    idle = (1,) * (n - len(touched))
    if not touched:
        return {idle: {(0, 0): 1}}
    rank = {p: r for r, p in enumerate(touched)}
    full_mask = (1 << len(touched)) - 1
    if basepoint not in rank:
        basepoint = touched[0]

    buckets: dict[tuple, dict[tuple[int, int], int]] = {}

    # node: link, component start, walked-top rank bitmask, size of the open
    # component, closed sizes as a linked list, and the path's monomial
    # c*A^a*B^b as its sign c and exponents a, b; then the crossing states
    stack = [(first[basepoint], basepoint, 1 << rank[basepoint], 1, (), 1, 0, 0,
              bytearray(length))]
    leaves = 0
    while stack:
        leaves += 1
        if leaves > _LEAF_BUDGET:
            raise BudgetError(f"resolution exceeds its budget of {_LEAF_BUDGET:,} leaves")
        link, start, done, size, sizes, csign, a, b, state = stack.pop()
        while True:
            while link < end:
                row = link >> 1
                s = state[row]
                if s == _GOOD:
                    link = cross[link]
                elif s == _GONE:
                    link = after[link]
                else:
                    if link & 1 == positive[row]:
                        # bad crossing: branch into delete (queued) and flip
                        child = bytearray(state)
                        child[row] = _GONE
                        if positive[row]:
                            dc, da, a = csign, a, a + 1  # delete: B; flip: A
                        else:
                            dc, da, a = -csign, a - 1, a - 1  # delete: -A^-1*B; flip: A^-1
                        stack.append((after[link], start, done, size, sizes, dc, da, b + 1, child))
                    state[row] = _GOOD
                    link = cross[link]
            pos = link - end
            if pos != start:
                done |= 1 << rank[pos]
                size += 1
                link = first[pos]
                continue
            sizes = (size, sizes)
            if done == full_mask:
                break
            start = touched[(~done & (done + 1)).bit_length() - 1]
            done |= 1 << rank[start]
            size = 1
            link = first[start]
        bucket = buckets.get(sizes)
        if bucket is None:
            buckets[sizes] = {(a, b): csign}
        else:
            bucket[a, b] = bucket.get((a, b), 0) + csign

    totals: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for sizes, bucket in buckets.items():
        flat = []
        while sizes:
            size, sizes = sizes
            flat.append(size)
        parts = tuple(sorted(flat, reverse=True)) + idle
        into = totals.setdefault(parts, bucket)
        if into is not bucket:
            for k, c in bucket.items():
                into[k] = into.get(k, 0) + c
    return totals


# -- Hecke product ----------------------------------------------------------------

_HECKE_MAX_STRANDS = 6
# entries times packed bits that one product may charge, summed over its
# letters: on words that cost over 10**9 the time tracks this at 0.04-0.07 ns a
# unit on two cores (6,600 letters of sigma_1 on two strands cost 99,869,765,232
# and took 6.3 s; 505 letters of (1 2 3 4 5) on six, 16,493,761,734 and 1.2 s),
# so no word it admits takes much past 7 s; a flype side, at most 3,000 letters
# on three strands, costs at most 6 * 3,005 * 2,251,500 = 40,594,545,000
_HECKE_BUDGET = 100_000_000_000
# letters past which a product takes its digit width from a first pass's bound
# on the element's 1-norm (_norm_bound), about 0.69 bits a letter on positive
# words against 1; on shorter words the pass costs more than its narrower
# digits save (the two broke even near 400 letters on two and three strands)
_SHARP_LETTERS = 400
# (n, basepoint) -> the classes of resolve(T_w) for the w the products have reached
_TABLES: dict[tuple[int, int], _Table] = {}


@functools.cache
def _group(n: int):
    """The permutations of n, breadth-first from the identity: a reduced positive
    word of each, w's followed by i for the w*s_i first reached from w, which has
    w(i) < w(i+1) as the shorter w*s_i are indexed first; per generator i and
    index w, the index of w*s_i and whether w(i) < w(i+1); and per index, the
    parity of the length l(w)."""
    perms, words, index = [tuple(range(n))], [[]], {tuple(range(n)): 0}
    swaps, rises = [[] for _ in range(n - 1)], [[] for _ in range(n - 1)]
    for k, w in enumerate(perms):  # perms grows as the walk reaches longer ones
        for i in range(n - 1):
            ws = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            j = index.setdefault(ws, len(perms))
            if j == len(perms):
                perms.append(ws)
                words.append(words[k] + [i + 1])
            swaps[i].append(j)
            rises[i].append(w[i] < w[i + 1])
    return words, swaps, rises, [len(word) & 1 for word in words]


def _hecke_product(n: int, indices: list[int], signs: list[int]) -> tuple[dict[int, int], int]:
    """The n-strand word with these letter indices and signs in H_n: its
    nonzero coefficients {w: packed coefficient on T_w}, and the digit width.

    Each monomial A^a*B^b on T_w has 2a + b + l(w) = e, the writhe, where l(w)
    is the length of w.  It holds on T_1, and with lo = w and hi = w*s_i each
    product moves 2a + b + l by the letter's sign: T_lo*T_i = T_hi (l + 1),
    T_hi*T_i = B*T_hi + A*T_lo (b + 1; a + 1, l - 1), T_hi*T_i^-1 = T_lo (l - 1)
    and T_lo*T_i^-1 = A^-1*T_hi - A^-1*B*T_lo (a - 1, l + 1; a - 1, b + 1).  So
    b fixes a, and every b on T_w has the parity p of e - l(w): the coefficient
    is packed into one int as the sum of c_b << width*(b >> 1), every other
    B-degree.  Per entry, the coefficient on T_w moves to T_{w*s_i} unchanged
    (e and l both move by one, so p stays), and when w(i) < w(i+1) differs
    from the letter being positive, the letter's sign times B*c also lands on
    T_w, where p flips: b + 1 >> 1 is (b >> 1) + p, a shift by one digit
    exactly when p is odd.

    The digits are balanced, each below 2**(width - 1) in size, with width =
    U.bit_length() + n(n-1)/2 + 1, where U bounds the element's 1-norm (the
    sum of the sizes of all its coefficients).  A letter maps T_w to
    T_{w*s_i} or to T_{w*s_i} plus or minus B*T_w, so it at most doubles the
    1-norm, which starts at 1: U = 2**L for the L letters, and width = L +
    n(n-1)/2 + 2, or past :data:`_SHARP_LETTERS` letters the sharper
    :func:`_norm_bound`.  Every digit of the product is at most U.
    :func:`_dot` sums digits times the coefficients of a table entry, whose
    1-norm is at most its leaf count, 2**l(w) <= 2**(n(n-1)/2), so each digit
    it decodes is at most U * 2**(n(n-1)/2) < 2**(width - 1) too, and zero
    only when the coefficient is.

    Each letter charges the entries it steps times the bits of a packed
    coefficient so far (B's degree is at most the letters read), and past
    :data:`_HECKE_BUDGET` it raises :class:`BudgetError`.
    """
    _, swaps, rises, odd = _group(n)
    bound = _norm_bound(n, indices, signs) if len(indices) > _SHARP_LETTERS else 1 << len(indices)
    width = bound.bit_length() + n * (n - 1) // 2 + 1
    # by the parity of the letters read, which is the writhe's, then of l(w)
    shifts = ((0, width), (width, 0))
    element, spent, limit = {0: 1}, 0, _HECKE_BUDGET // width  # T of the identity
    for k, (index, sign) in enumerate(zip(indices, signs)):
        spent += len(element) * ((k >> 1) + 1)  # entries times digits, each width bits
        if spent > limit:
            raise _over_budget(n, indices)
        swap, rise, up, shift = swaps[index - 1], rises[index - 1], sign > 0, shifts[k & 1]
        moved = {swap[w]: c for w, c in element.items()}
        for w, c in element.items():
            if rise[w] != up:
                c <<= shift[odd[w]]
                if c := moved.get(w, 0) + c if up else moved.get(w, 0) - c:
                    moved[w] = c
                else:
                    del moved[w]
        element = moved
    return element, width


def _norm_bound(n: int, indices: list[int], signs: list[int]) -> int:
    """A bound on the 1-norm of the word's element in H_n, from the product
    run on bounds: each letter moves the bound on T_w to T_{w*s_i}, and adds
    it to the bound there too where :func:`_hecke_product` adds B*c.  The
    bound only grows, so the product charges each letter at least one entry
    of digits as wide as the bound so far gives, and once that passes
    :data:`_HECKE_BUDGET` it raises :class:`BudgetError` at once."""
    _, swaps, rises, _ = _group(n)
    bounds, total, least = {0: 1}, 1, 0
    for k, (index, sign) in enumerate(zip(indices, signs)):
        least += ((k >> 1) + 1) * (total.bit_length() + n * (n - 1) // 2 + 1)
        if least > _HECKE_BUDGET:
            raise _over_budget(n, indices)
        swap, rise, up = swaps[index - 1], rises[index - 1], sign > 0
        moved = {swap[w]: u for w, u in bounds.items()}
        for w, u in bounds.items():
            if rise[w] != up:
                moved[w] = moved.get(w, 0) + u
                total += u
        bounds = moved
    return total


def _over_budget(n: int, indices: list[int]) -> BudgetError:
    return BudgetError(f"{len(indices):,} letters on {n} strands pass the Hecke product's "
                       f"budget of {_HECKE_BUDGET:,} (entries times packed bits)")


class _Table(NamedTuple):
    """resolve(T_w) at one (n, basepoint), for the w reached so far.

    ``classes[w]`` indexes ``terms``, whose entry holds, per parity of the
    writhe, the (slot, shift, coeff) triples of its class (:func:`_dot`);
    ``ids`` finds a class by that entry, ``slots`` a slot by its (partition,
    line - e), and ``keys`` lists those by slot."""

    classes: dict[int, int]
    terms: list[tuple[tuple[tuple[int, int, int], ...], ...]]
    ids: dict[tuple, int]
    slots: dict[tuple[tuple[int, ...], int], int]
    keys: list[tuple[tuple[int, ...], int]]


def _class(table: _Table, n: int, basepoint: int, w: int) -> int:
    """Fill table's entry for w from the search on its reduced positive word,
    and return its class."""
    word = _group(n)[0][w]
    half, odd = len(word) >> 1, len(word) & 1
    terms = []
    for parts, keys in _walk(n, word, [1] * len(word), basepoint).items():
        for (a, b), c in keys.items():
            if c:
                line = (parts, 2 * (a - half) + b - odd)
                slot = table.slots.setdefault(line, len(table.keys))
                if slot == len(table.keys):
                    table.keys.append(line)
                terms.append((slot, b, c))
    # what a packed coefficient on T_w adds to each slot, per parity of the
    # writhe: the class's key, held once
    pair = tuple(tuple(sorted((slot, (p + b) >> 1, c) for slot, b, c in terms))
                 for p in (odd, odd ^ 1))
    k = table.ids.setdefault(pair, len(table.terms))
    if k == len(table.terms):
        table.terms.append(pair)
    table.classes[w] = k
    return k


def _digits(x: int, width: int, count: int) -> list[int]:
    """The count lowest balanced base-2**width digits of x, lowest first, each
    of size below 2**(width - 1).  It splits x in halves down to a few digits,
    so the work grows near-linearly in x's size, where peeling each digit off
    in turn would copy x once per digit."""
    if count > 8:
        low = count >> 1
        bits = low * width
        rest, x = x >> bits, x & ((1 << bits) - 1)
        if x >> (bits - 1):  # the low half is negative: borrow from the rest
            x, rest = x - (1 << bits), rest + 1
        return _digits(x, width, low) + _digits(rest, width, count - low)
    out, mask = [], (1 << width) - 1
    for _ in range(count):
        d = x & mask
        x >>= width
        if d >> (width - 1):
            d, x = d - (1 << width), x + 1
        out.append(d)
    return out


def _dot(element: dict[int, int], width: int, writhe: int, n: int, basepoint: int) -> SkeinVector:
    """resolve of an element of H_n, packed as :func:`_hecke_product` packs it.

    A table term c*A^s*B^t of resolve(T_w) takes digit j of T_w's coefficient,
    the monomial A^a*B^b with b = 2j + p, to A^(a+s)*B^(b+t), on the line
    2(a+s) + (b+t) = e - l(w) + 2s + t; its B-degree is 2D + (that line's
    parity), with D = j + ((p + t) >> 1).  So the term adds c times the packed
    coefficient, shifted by (p + t) >> 1 digits, into one accumulator per
    (partition, line - e), whose digit D is then the coefficient of its
    monomial.  Two w share a class when a packed coefficient on either adds
    the same to every slot at both parities of e, as when l(w) has the same
    parity and their terms are equal once s is taken relative to l(w) >> 1;
    so the packed coefficients of a class are summed first and its terms
    applied once.  Each accumulator is decoded once, at the end
    (:func:`_digits`), and its digits stay below 2**(width - 1) in size, as
    :func:`_hecke_product` shows.
    """
    table = _TABLES.get((n, basepoint))
    if table is None:
        table = _TABLES[n, basepoint] = _Table({}, [], {}, {}, [])
    classes, sums = table.classes, {}
    for w, c in element.items():
        k = classes.get(w)
        if k is None:
            k = _class(table, n, basepoint, w)
        sums[k] = sums.get(k, 0) + c
    terms, parity, accs = table.terms, writhe & 1, {}
    for k, s in sums.items():
        if s:
            for slot, shift, c in terms[k][parity]:
                accs[slot] = accs.get(slot, 0) + (c * s << width * shift)
    keys, entries = table.keys, {}
    for slot, x in accs.items():
        if x:
            parts, g = keys[slot]
            g += writhe
            out = entries.get(parts)
            if out is None:
                out = entries[parts] = {}
            b = g & 1
            for c in _digits(x, width, x.bit_length() // width + 1):
                if c:
                    out[(g - b) >> 1, b] = c
                b += 2
    return SkeinVector._of(n, {parts: LaurentAB._of(out) for parts, out in entries.items()})


# -- entry points ------------------------------------------------------------------


def resolve(word: BraidWord, basepoint: int = 1) -> SkeinVector:
    """Resolve the closure into its combination of unlink patterns.

    The result never depends on crossing ids.  It can depend on the
    basepoint: walks started elsewhere meet the crossings in a different
    order and expand the same closure along different descending diagrams.
    The default basepoint is strand 1, and all invariance statements in
    this package are about that choice.  What every basepoint shares is the
    framed-link polynomial obtained through the bridge module.

    First each letter cancels against a later inverse letter across
    letters that commute with it (:meth:`BraidWord.free_reduce`).  On one
    to six strands the word is then multiplied out in the Hecke algebra
    and dotted with the table of basis resolutions, so the work grows
    polynomially with the word length, and stops with
    :class:`BudgetError` past :data:`_HECKE_BUDGET`; on seven or more it runs
    the depth-first search, whose work grows exponentially with it,
    because the table would have n! entries (see the module docstring),
    and stops with :class:`BudgetError` past :data:`_LEAF_BUDGET` leaves.
    """
    return _resolved(word, (basepoint,))[0]


def compare_basepoints(word: BraidWord) -> dict[int, SkeinVector]:
    """Resolution from every basepoint, for inspecting how they differ.  One
    walk per basepoint makes its work grow like n*n on n strands, so past
    :data:`_STRAND_BUDGET` strand-steps it raises :class:`BudgetError` first."""
    n = word.strand_count
    if n * n > _STRAND_BUDGET:
        raise BudgetError(f"{n:,} basepoints on {n:,} strands take {n * n:,} strand-steps, "
                          f"past the budget of {_STRAND_BUDGET:,}")
    return dict(enumerate(_resolved(word, range(1, n + 1)), 1))


def _resolved(word: BraidWord, basepoints: Sequence[int]) -> list[SkeinVector]:
    """resolve at each basepoint, from one cancelled word and one engine."""
    for basepoint in basepoints:
        _check_basepoint(word, basepoint)
    n = word.strand_count
    indices, signs = [l.index for l in word.letters], [l.sign for l in word.letters]
    kept = _cancel_pairs(indices, signs)
    if len(kept) < len(indices):
        indices, signs = [indices[k] for k in kept], [signs[k] for k in kept]
    if n <= _HECKE_MAX_STRANDS:
        element, width = _hecke_product(n, indices, signs)
        return [_dot(element, width, sum(signs), n, bp) for bp in basepoints]
    return [_search_vector(n, indices, signs, bp) for bp in basepoints]


def _search_vector(n: int, indices: list[int], signs: list[int], basepoint: int) -> SkeinVector:
    """The search's resolution as a vector."""
    return _vector(n, _walk(n, indices, signs, basepoint))


# -- explicit tree ----------------------------------------------------------------


class ResolutionNode(NamedTuple):
    """One diagram in the branching resolution.

    ``edge`` is the skein factor on the edge from the parent (None at the
    root).  ``good`` holds the crossings known to be good once this node's
    walk stopped at its first bad crossing.  Leaves have no children; every
    crossing of a leaf is good, so it is a descending diagram.
    """

    word: BraidWord
    edge: LaurentAB | None
    good: frozenset[int]
    children: tuple[ResolutionNode, ...]

    def is_leaf(self) -> bool:
        return not self.children

    def leaf_partition(self) -> tuple[int, ...]:
        if not self.is_leaf():
            raise ValueError("only leaves name an unlink pattern")
        return cycle_type(permutation(self.word))


def resolution_tree(word: BraidWord, basepoint: int = 1) -> ResolutionNode:
    """Materialize the full branching as a tree of diagrams.

    Unlike :func:`resolve`, every node runs the walk afresh from the
    basepoint on its own word, and its ``good`` set is that walk's own
    record.  The tree always sums to the resolve() vector.  The tree grows
    exponentially with the word length, so once its node words hold more
    than :data:`_TREE_LETTER_BUDGET` letters in all, it raises
    :class:`BudgetError`.
    """
    _check_basepoint(word, basepoint)
    spent = 0

    def build(current: BraidWord, edge: LaurentAB | None) -> ResolutionNode:
        nonlocal spent
        spent += len(current.letters)
        if spent > _TREE_LETTER_BUDGET:
            raise BudgetError(
                f"resolution tree exceeds its budget of {_TREE_LETTER_BUDGET:,} "
                f"letters in node words"
            )
        seen: set[int] = set()
        hit = next(_first_unders(current, basepoint, seen), None)
        good = frozenset(seen)
        if hit is None:
            return ResolutionNode(current, edge, good, ())
        if hit.sign > 0:
            flip_edge, delete_edge = A, B
        else:
            flip_edge, delete_edge = A_INV, NEG_A_INV_B
        children = (
            build(current.change_crossing(hit.crossing_id), flip_edge),
            build(current.delete_crossing(hit.crossing_id), delete_edge),
        )
        return ResolutionNode(current, edge, good, children)

    return build(word, None)


def tree_vector(node: ResolutionNode) -> SkeinVector:
    """Sum the tree's leaves with their path coefficients.

    Each edge is one signed monomial (A, B, A^-1 or -A^-1*B), so a path's is
    one too, c*A^a*B^b carried as (c, a, b); any other edge raises ValueError."""
    totals: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    stack = [(node, 1, 0, 0)]
    while stack:
        current, c, a, b = stack.pop()
        if current.children:
            for child in current.children:
                [((ea, eb), ec)] = child.edge._terms.items()  # ValueError unless one term
                stack.append((child, c * ec, a + ea, b + eb))
        else:
            into = totals.setdefault(current.leaf_partition(), {})
            into[a, b] = into.get((a, b), 0) + c
    return _vector(node.word.strand_count, totals)


def leaf_count(node: ResolutionNode) -> int:
    if node.is_leaf():
        return 1
    return sum(leaf_count(child) for child in node.children)
