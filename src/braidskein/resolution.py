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

Labels persist into child diagrams.  Re-walking a child from the original
basepoint retraces the parent's path across already-labeled crossings and
makes no new decision before the branch point, so continuing the walk in
place (the fast engine below) and restarting from scratch (the explicit
tree builder) produce the same result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .skein import A, A_INV, B, NEG_A_INV_B, LaurentAB, SkeinVector
from .words import BraidWord, Letter, WordError, cycle_type, permutation


class Label(enum.Enum):
    GOOD = "good"
    BAD = "bad"


def _check_basepoint(word: BraidWord, basepoint: int):
    if not 1 <= basepoint <= word.strand_count:
        raise WordError(
            f"basepoint {basepoint} out of range for {word.strand_count} strands"
        )


def _walk(word: BraidWord, basepoint: int, labels: dict[int, Label],
          stop_on_bad: bool) -> Letter | None:
    """Walk the whole closure, updating ``labels`` in place.

    Each time a component closes, the walk restarts at the smallest strand
    position not yet walked.  With ``stop_on_bad`` the walk returns the
    letter of the first unlabeled under-strand encounter without labeling
    it; otherwise bad crossings are labeled and the walk continues through
    them.  Returns None when every component was completed.
    """
    completed: set[int] = set()
    start = basepoint
    while True:
        position = start
        seen = {start}
        while True:
            for letter in word.letters:
                i = letter.index
                if position != i and position != i + 1:
                    continue
                if letter.crossing_id not in labels:
                    over_entry = i if letter.sign > 0 else i + 1
                    if position == over_entry:
                        labels[letter.crossing_id] = Label.GOOD
                    elif stop_on_bad:
                        return letter
                    else:
                        labels[letter.crossing_id] = Label.BAD
                position = i + 1 if position == i else i
            if position == start:
                break
            seen.add(position)
        completed |= seen
        for start in range(1, word.strand_count + 1):
            if start not in completed:
                break
        else:
            return None


def label_only(word: BraidWord, basepoint: int = 1) -> dict[int, Label]:
    """Label every crossing good or bad without resolving anything."""
    _check_basepoint(word, basepoint)
    state: dict[int, Label] = {}
    _walk(word, basepoint, state, stop_on_bad=False)
    return state


# -- fast engine ----------------------------------------------------------------

_UNSEEN, _GOOD, _GONE = 0, 1, 2


def resolve(word: BraidWord, basepoint: int = 1) -> SkeinVector:
    """Resolve the closure into its combination of unlink patterns.

    The result never depends on crossing ids.  It can depend on the
    basepoint: walks started elsewhere meet the crossings in a different
    order and expand the same closure along different descending diagrams.
    The default basepoint is strand 1, and all invariance statements in
    this package are about that choice.  What every basepoint shares is the
    framed-link polynomial obtained through the bridge module.
    """
    n = word.strand_count
    _check_basepoint(word, basepoint)

    indices = tuple(l.index for l in word.letters)
    signs = tuple(l.sign for l in word.letters)
    length = len(indices)
    full_mask = (1 << (n + 1)) - 2  # bits 1..n

    totals: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}

    # node: row, position, component start, seen-top bitmask, completed
    # bitmask, finished component sizes, path sign, A exponent, B exponent
    stack = [(0, basepoint, basepoint, 1 << basepoint, 0, (), 1, 0, 0,
              bytearray(length))]
    while stack:
        row, pos, start, tops, done, sizes, csign, aexp, bexp, state = stack.pop()
        while True:
            if row == length:
                if pos == start:
                    done |= tops
                    sizes = sizes + (bin(tops).count("1"),)
                    if done == full_mask:
                        key = tuple(sorted(sizes, reverse=True))
                        exps = (aexp, bexp)
                        bucket = totals.setdefault(key, {})
                        bucket[exps] = bucket.get(exps, 0) + csign
                        break
                    nxt = 1
                    while done >> nxt & 1:
                        nxt += 1
                    pos = start = nxt
                    tops = 1 << nxt
                else:
                    tops |= 1 << pos
                row = 0
                continue
            i = indices[row]
            if state[row] == _GONE or (pos != i and pos != i + 1):
                row += 1
                continue
            if state[row] == _UNSEEN:
                over_entry = i if signs[row] > 0 else i + 1
                if pos != over_entry:
                    # bad crossing: branch into delete (queued) and flip
                    child = bytearray(state)
                    child[row] = _GONE
                    if signs[row] > 0:
                        stack.append((row + 1, pos, start, tops, done, sizes,
                                      csign, aexp, bexp + 1, child))
                        aexp += 1
                    else:
                        stack.append((row + 1, pos, start, tops, done, sizes,
                                      -csign, aexp - 1, bexp + 1, child))
                        aexp -= 1
                state[row] = _GOOD
            pos = i + 1 if pos == i else i
            row += 1

    return SkeinVector(n, {key: LaurentAB(terms) for key, terms in totals.items()})


def compare_basepoints(word: BraidWord) -> dict[int, SkeinVector]:
    """Resolution from every basepoint, for inspecting how they differ."""
    return {bp: resolve(word, bp) for bp in range(1, word.strand_count + 1)}


# -- explicit tree ----------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionNode:
    """One diagram in the branching resolution.

    ``edge`` is the skein factor on the edge from the parent (None at the
    root).  ``labels`` are the labels known once this node's walk stopped.
    Leaves have no children and are fully labeled descending diagrams.
    """

    word: BraidWord
    edge: LaurentAB | None
    labels: dict[int, Label]
    children: tuple[ResolutionNode, ...]

    def is_leaf(self) -> bool:
        return not self.children

    def leaf_partition(self) -> tuple[int, ...]:
        if not self.is_leaf():
            raise ValueError("only leaves name an unlink pattern")
        return cycle_type(permutation(self.word))


def resolution_tree(word: BraidWord, basepoint: int = 1) -> ResolutionNode:
    """Materialize the full branching as a tree of diagrams.

    Unlike :func:`resolve`, every node re-runs the walk from the original
    basepoint on its own word; inherited labels make the replay
    deterministic.  The tree always sums to the resolve() vector.
    """
    _check_basepoint(word, basepoint)

    def build(current: BraidWord, inherited: dict[int, Label],
              edge: LaurentAB | None) -> ResolutionNode:
        labels = dict(inherited)
        hit = _walk(current, basepoint, labels, stop_on_bad=True)
        if hit is None:
            return ResolutionNode(current, edge, labels, ())
        flipped = current.change_crossing(hit.crossing_id)
        deleted = current.delete_crossing(hit.crossing_id)
        flip_labels = dict(labels)
        flip_labels[hit.crossing_id] = Label.GOOD
        if hit.sign > 0:
            flip_edge, delete_edge = A, B
        else:
            flip_edge, delete_edge = A_INV, NEG_A_INV_B
        children = (
            build(flipped, flip_labels, flip_edge),
            build(deleted, labels, delete_edge),
        )
        return ResolutionNode(current, edge, labels, children)

    return build(word, {}, None)


def tree_vector(node: ResolutionNode) -> SkeinVector:
    """Sum the tree's leaves with their path coefficients."""
    n = node.word.strand_count
    if node.is_leaf():
        return SkeinVector(n, {node.leaf_partition(): LaurentAB.one()})
    total = SkeinVector(n)
    for child in node.children:
        total = total + tree_vector(child).scale(child.edge)
    return total


def leaf_count(node: ResolutionNode) -> int:
    if node.is_leaf():
        return 1
    return sum(leaf_count(child) for child in node.children)
