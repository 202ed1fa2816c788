"""
The release gate: ten check batteries over the whole package.

Each criterion function runs one battery at full scale by default and
returns a result record instead of raising, so the battery keeps counting
failures after the first one.  A battery declares its number, name and
quick-mode scales once, in its ``@_criterion`` line; ``run_all(quick=True)``
runs those reduced scales (enumeration lengths shrink, sample counts drop) and
finishes in under a second; the full run is what the test suite and any
release should use.  All randomness is seeded, so repeated runs check the
same cases.
"""

from __future__ import annotations

import functools
import random
import time
from typing import NamedTuple

from .analysis import MalformedVectorError, nugatory_scan, odd_change_check, parity_consistency
from .homfly import BraidIndexCertificate, HomflyPoly, certify_braid_index_3, homfly_oracle, to_homfly
from .resolution import Label, _search_vector, label_only, resolve
from .skein import A, B, SkeinVector
from .templates import (
    enumerate_exchange_instances,
    enumerate_flype_instances,
    exchange_pair,
    flype_pair,
    search_exchange_divergence,
)
from .words import BraidWord, MoveError, basis_braid, parse_word, partitions_of, signed_words

SEED = 20260825

TREFOIL_WORD = "2: 1 1 1"
TREFOIL_VECTOR = SkeinVector(2, {(2,): A + B * B, (1, 1): A * B})
TREFOIL_HOMFLY = HomflyPoly({(-4, 0): -1, (-2, 0): -2, (-2, 2): 1})
FIGURE_EIGHT_WORD = "3: 1 -2 1 -2"


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def format(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} criterion {self.number} ({self.name}): {self.detail} [{self.seconds:.2f}s]"


# (criterion, quick-mode scales) in running order, filled by @_criterion
_CRITERIA: list = []


def _criterion(number: int, name: str, **quick_scales):
    """Declare a battery returning ``(passed, detail)`` as criterion ``number``,
    timed into a :class:`CriterionResult`.  ``quick_scales`` are its keyword
    arguments in quick mode; without them quick mode runs it at full scale."""
    def declare(battery):
        @functools.wraps(battery)
        def criterion(*args, **scales) -> CriterionResult:
            started = time.perf_counter()
            passed, detail = battery(*args, **scales)
            return CriterionResult(number, name, passed, detail, time.perf_counter() - started)

        _CRITERIA.append((criterion, quick_scales))
        return criterion
    return declare


def _random_word(rng: random.Random, n: int, max_len: int, min_len: int = 0) -> BraidWord:
    length = rng.randint(min_len, max_len)
    signed = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)]
    return BraidWord.from_signed(n, signed)


@_criterion(1, "trefoil-exact")
def criterion_1() -> tuple[bool, str]:
    """Exact trefoil resolution, under a millisecond."""
    word = parse_word(TREFOIL_WORD)
    vector = resolve(word)  # warm interpreter paths out of the timed window
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        vector = resolve(word)
        best = min(best, time.perf_counter() - t0)
    exact = vector == TREFOIL_VECTOR
    fast = best < 1e-3
    detail = f"vector {'exact' if exact else 'WRONG: ' + vector.format()}, best of 5 in {best * 1e6:.0f} us"
    return exact and fast, detail


@_criterion(2, "basis-fixed-points", max_n=5)
def criterion_2(max_n: int = 6) -> tuple[bool, str]:
    """Every basis word resolves to itself; outputs per n are all distinct."""
    started = time.perf_counter()
    failures = 0
    checked = 0
    for n in range(1, max_n + 1):
        outputs = set()
        parts_list = partitions_of(n)
        for parts in parts_list:
            vector = resolve(basis_braid(parts))
            checked += 1
            if vector != SkeinVector.singleton(n, parts):
                failures += 1
            outputs.add(vector)
        if len(outputs) != len(parts_list):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 1.0
    detail = f"{checked} basis words through n={max_n}, {failures} failures, {elapsed:.3f}s"
    return ok, detail


@_criterion(3, "move-invariance", max_len=4)
def criterion_3(max_len: int = 7) -> tuple[bool, str]:
    """Three-strand move invariance, exhaustive up to max_len letters."""
    @functools.cache
    def resolved(signed: tuple[int, ...]) -> SkeinVector:
        return resolve(BraidWord.from_signed(3, signed))

    words = failures = 0
    for signed in signed_words(3, max_len):
        word = BraidWord.from_signed(3, signed)
        base = resolved(signed)
        words += 1
        # resolve cancels inverse pairs itself, so a word that cancels is
        # held to the search on the word as given, which cancels nothing
        if (len(word.free_reduce().letters) != len(word.letters)
                and _search_vector(3, [l.index for l in word.letters],
                                   [l.sign for l in word.letters], 1) != base):
            failures += 1
        for k in range(1, len(signed)):
            if resolved(word.cyclic_rotate(k).signed_indices()) != base:
                failures += 1
        for position in range(len(signed)):
            try:
                rewritten = word.apply_braid_relation_at(position)
            except MoveError:
                continue
            if resolved(rewritten.signed_indices()) != base:
                failures += 1
    detail = f"{words} words (len<={max_len}), {failures} move-invariance failures"
    return failures == 0, detail


@_criterion(4, "template-invariance", max_flype_power=2, max_exchange_len=2)
def criterion_4(max_flype_power: int = 3, max_exchange_len: int = 4) -> tuple[bool, str]:
    """Flype and 3-strand exchange pairs resolve identically."""
    failures = 0
    flypes = exchanges = 0
    for instance in enumerate_flype_instances(max_flype_power):
        left, right = flype_pair(*instance)
        flypes += 1
        if resolve(left) != resolve(right):
            failures += 1
    for u, v in enumerate_exchange_instances(3, max_exchange_len):
        left, right = exchange_pair(u, v)
        exchanges += 1
        if resolve(left) != resolve(right):
            failures += 1
    detail = f"{flypes} flype + {exchanges} exchange pairs, {failures} unequal"
    return failures == 0, detail


@_criterion(5, "parity", samples=120, max_len=8)
def criterion_5(samples: int = 1000, max_len: int = 12) -> tuple[bool, str]:
    """B-free exponent equals positive-bad minus negative-bad counts."""
    rng = random.Random(SEED + 5)
    failures = 0
    for _ in range(samples):
        word = _random_word(rng, rng.choice([2, 3]), max_len)
        try:
            if not parity_consistency(word).ok:
                failures += 1
        except MalformedVectorError:
            failures += 1
    detail = f"{samples} random words (n in 2..3, len<={max_len}), {failures} failures"
    return failures == 0, detail


def _certified_words(rng: random.Random, target: int, max_len: int,
                     attempt_cap: int) -> list[BraidWord]:
    found = [parse_word(FIGURE_EIGHT_WORD)]
    seen = {found[0].signed_indices()}
    attempts = 0
    while len(found) < target and attempts < attempt_cap:
        attempts += 1
        word = _random_word(rng, 3, max_len, min_len=4)
        if word.signed_indices() in seen:
            continue
        if certify_braid_index_3(word) is BraidIndexCertificate.CERTIFIED:
            seen.add(word.signed_indices())
            found.append(word)
    return found


@_criterion(6, "no-removable-crossings", target_words=5, max_len=8, attempt_cap=800)
def criterion_6(target_words: int = 20, max_len: int = 10,
                attempt_cap: int = 4000) -> tuple[bool, str]:
    """No output-preserving single change on certified 3-strand words."""
    rng = random.Random(SEED + 6)
    certified = _certified_words(rng, target_words, max_len, attempt_cap)
    failures = 0
    for word in certified:
        report = nugatory_scan(word)
        if not report.all_differ:
            failures += 1
        base_labels = label_only(word)
        for cid in word.crossing_ids():
            flipped = label_only(word.change_crossing(cid))
            expected = dict(base_labels)
            expected[cid] = Label.BAD if base_labels[cid] is Label.GOOD else Label.GOOD
            if flipped != expected:
                failures += 1
    enough = len(certified) >= target_words
    detail = (f"{len(certified)} certified braid-index-3 words scanned "
              f"(target {target_words}), {failures} failures")
    return enough and failures == 0, detail


@_criterion(7, "odd-changes-move-output", samples=40, max_len=8)
def criterion_7(samples: int = 200, max_len: int = 10) -> tuple[bool, str]:
    """Changing any odd set of crossings always moves the output."""
    rng = random.Random(SEED + 7)
    failures = 0
    for _ in range(samples):
        word = _random_word(rng, rng.choice([2, 3]), max_len, min_len=1)
        ids = list(word.crossing_ids())
        size = rng.randrange(1, len(ids) + 1, 2)
        subset = rng.sample(ids, size)
        if not odd_change_check(word, subset).differs:
            failures += 1
    detail = f"{samples} (word, odd subset) pairs, {failures} unchanged outputs"
    return failures == 0, detail


@_criterion(8, "bridge-equals-oracle", max_len=4, random_b4=20, b4_len=6)
def criterion_8(max_len: int = 7, random_b4: int = 200,
                b4_len: int = 8) -> tuple[bool, str]:
    """Bridge values equal the independent polynomial oracle everywhere."""
    failures = 0
    checked = 0
    for n in (2, 3):
        for signed in signed_words(n, max_len):
            word = BraidWord.from_signed(n, signed)
            checked += 1
            if to_homfly(resolve(word)) != homfly_oracle(word):
                failures += 1
    rng = random.Random(SEED + 8)
    for _ in range(random_b4):
        word = _random_word(rng, 4, b4_len)
        checked += 1
        if to_homfly(resolve(word)) != homfly_oracle(word):
            failures += 1
    trefoil_ok = to_homfly(resolve(parse_word(TREFOIL_WORD))) == TREFOIL_HOMFLY
    if not trefoil_ok:
        failures += 1
    detail = f"{checked} words bridged (exhaustive n<=3 len<={max_len} + {random_b4} n=4), {failures} mismatches"
    return failures == 0, detail


@_criterion(9, "stabilization-witness")
def criterion_9() -> tuple[bool, str]:
    """Stabilization changes the vector but not the bridge image."""
    one_strand = resolve(parse_word("1:"))
    stabilized = resolve(parse_word("2: 1"))
    distinct = one_strand != stabilized
    both_unknot = (to_homfly(one_strand) == HomflyPoly.one()
                   and to_homfly(stabilized) == HomflyPoly.one())
    detail = (f"vectors {'distinct' if distinct else 'EQUAL'}, "
              f"bridge images {'both 1' if both_unknot else 'WRONG'}")
    return distinct and both_unknot, detail


@_criterion(10, "four-strand-divergence", max_block_len=2)
def criterion_10(max_block_len: int = 3) -> tuple[bool, str]:
    """Four-strand exchange divergence exists and stays link-type-safe."""
    hits = search_exchange_divergence(4, max_block_len)
    oracle_ok = all(hit.oracle_equal for hit in hits)
    knots = sum(1 for hit in hits if hit.is_knot)
    detail = (f"{len(hits)} diverging pairs at block<={max_block_len}, "
              f"{knots} close to knots, oracle agreement {'yes' if oracle_ok else 'NO'}")
    return bool(hits) and oracle_ok, detail


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run the gate; quick mode shrinks scales to finish within seconds."""
    return [criterion(**(scales if quick else {})) for criterion, scales in _CRITERIA]
