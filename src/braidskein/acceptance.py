"""
The release gate: ten check batteries over the whole package.

Each criterion function runs one battery at full scale by default and
returns a result record instead of raising, so the battery keeps counting
failures after the first one.  ``run_all(quick=True)`` runs the documented
reduced scales (enumeration lengths shrink, sample counts drop) and
finishes in under a second; the full run took 21.1 s on a 2-core machine
and is what the test suite and any release should use.  All randomness is
seeded, so repeated runs check the same cases.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import homfly
from .analysis import (
    MalformedVectorError,
    bad_counts,
    bfree_exponent,
    nugatory_scan,
    odd_change_check,
)
from .homfly import BraidIndexCertificate, HomflyPoly, certify_braid_index_3, homfly_oracle
from .resolution import Label, label_only, resolve
from .skein import A, B, LaurentAB, SkeinVector
from .templates import (
    ExchangeInstance,
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


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def format(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} criterion {self.number} ({self.name}): {self.detail} [{self.seconds:.2f}s]"


def _random_word(rng: random.Random, n: int, max_len: int, min_len: int = 0) -> BraidWord:
    length = rng.randint(min_len, max_len)
    signed = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)]
    return BraidWord.from_signed(n, signed)


def criterion_1() -> CriterionResult:
    """Exact trefoil resolution, under a millisecond."""
    started = time.perf_counter()
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
    return CriterionResult(1, "trefoil-exact", exact and fast, detail,
                           time.perf_counter() - started)


def criterion_2(max_n: int = 6) -> CriterionResult:
    """Every basis word resolves to itself; outputs per n are all distinct."""
    started = time.perf_counter()
    failures = 0
    checked = 0
    for n in range(1, max_n + 1):
        outputs = set()
        parts_list = partitions_of(n)
        for parts in parts_list:
            vector = resolve(basis_braid(parts, n))
            checked += 1
            if vector != SkeinVector.singleton(n, parts):
                failures += 1
            outputs.add(vector)
        if len(outputs) != len(parts_list):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 1.0
    detail = f"{checked} basis words through n={max_n}, {failures} failures, {elapsed:.3f}s"
    return CriterionResult(2, "basis-fixed-points", ok, detail, elapsed)


def criterion_3(max_len: int = 7) -> CriterionResult:
    """Three-strand move invariance, exhaustive up to max_len letters."""
    started = time.perf_counter()
    cache: dict[tuple[int, ...], SkeinVector] = {}

    def cached(word: BraidWord) -> SkeinVector:
        key = word.signed_indices()
        found = cache.get(key)
        if found is None:
            found = cache[key] = resolve(word)
        return found

    words = failures = 0
    for signed in signed_words(3, max_len):
        word = BraidWord.from_signed(3, signed)
        base = cached(word)
        words += 1
        reduced = word.free_reduce()
        if len(reduced.letters) != len(word.letters) and resolve(reduced) != base:
            failures += 1
        for k in range(1, len(signed)):
            if cached(word.cyclic_rotate(k)) != base:
                failures += 1
        for position in range(len(signed)):
            try:
                rewritten = word.apply_braid_relation_at(position)
            except MoveError:
                continue
            if cached(rewritten) != base:
                failures += 1
    elapsed = time.perf_counter() - started
    detail = f"{words} words (len<={max_len}), {failures} move-invariance failures"
    return CriterionResult(3, "move-invariance", failures == 0, detail, elapsed)


def criterion_4(max_flype_power: int = 3, max_exchange_len: int = 4) -> CriterionResult:
    """Flype and 3-strand exchange pairs resolve identically."""
    started = time.perf_counter()
    failures = 0
    flypes = exchanges = 0
    for instance in enumerate_flype_instances(max_flype_power):
        left, right = flype_pair(instance)
        flypes += 1
        if resolve(left) != resolve(right):
            failures += 1
    for instance in enumerate_exchange_instances(3, max_exchange_len):
        left, right = exchange_pair(instance, 3)
        exchanges += 1
        if resolve(left) != resolve(right):
            failures += 1
    detail = f"{flypes} flype + {exchanges} exchange pairs, {failures} unequal"
    return CriterionResult(4, "template-invariance", failures == 0, detail,
                           time.perf_counter() - started)


def criterion_5(samples: int = 1000, max_len: int = 12) -> CriterionResult:
    """B-free exponent equals positive-bad minus negative-bad counts."""
    started = time.perf_counter()
    rng = random.Random(SEED + 5)
    failures = 0
    for _ in range(samples):
        word = _random_word(rng, rng.choice([2, 3]), max_len)
        counts = bad_counts(word)
        try:
            k = bfree_exponent(resolve(word))
        except MalformedVectorError:
            failures += 1
            continue
        if k != counts.positive_bad - counts.negative_bad:
            failures += 1
    detail = f"{samples} random words (n in 2..3, len<={max_len}), {failures} failures"
    return CriterionResult(5, "parity", failures == 0, detail,
                           time.perf_counter() - started)


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


def criterion_6(target_words: int = 20, max_len: int = 10,
                attempt_cap: int = 4000) -> CriterionResult:
    """No output-preserving single change on certified 3-strand words."""
    started = time.perf_counter()
    rng = random.Random(SEED + 6)
    certified = _certified_words(rng, target_words, max_len, attempt_cap)
    failures = 0
    scans = 0
    for word in certified:
        report = nugatory_scan(word)
        scans += 1
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
    detail = (f"{scans} certified braid-index-3 words scanned "
              f"(target {target_words}), {failures} failures")
    return CriterionResult(6, "no-removable-crossings", enough and failures == 0,
                           detail, time.perf_counter() - started)


def criterion_7(samples: int = 200, max_len: int = 10) -> CriterionResult:
    """Changing any odd set of crossings always moves the output."""
    started = time.perf_counter()
    rng = random.Random(SEED + 7)
    failures = 0
    checked = 0
    while checked < samples:
        word = _random_word(rng, rng.choice([2, 3]), max_len, min_len=1)
        ids = list(word.crossing_ids())
        size = rng.randrange(1, len(ids) + 1, 2)
        subset = rng.sample(ids, size)
        checked += 1
        if not odd_change_check(word, subset).differs:
            failures += 1
    detail = f"{checked} (word, odd subset) pairs, {failures} unchanged outputs"
    return CriterionResult(7, "odd-changes-move-output", failures == 0, detail,
                           time.perf_counter() - started)


def criterion_8(max_len: int = 7, random_b4: int = 200,
                b4_len: int = 8) -> CriterionResult:
    """Bridge values equal the independent polynomial oracle everywhere."""
    started = time.perf_counter()
    failures = 0
    checked = 0
    for n in (2, 3):
        for signed in signed_words(n, max_len):
            word = BraidWord.from_signed(n, signed)
            checked += 1
            if homfly.to_homfly(resolve(word)) != homfly_oracle(word):
                failures += 1
    rng = random.Random(SEED + 8)
    for _ in range(random_b4):
        word = _random_word(rng, 4, b4_len)
        checked += 1
        if homfly.to_homfly(resolve(word)) != homfly_oracle(word):
            failures += 1
    trefoil_ok = homfly.to_homfly(resolve(parse_word(TREFOIL_WORD))) == TREFOIL_HOMFLY
    if not trefoil_ok:
        failures += 1
    detail = f"{checked} words bridged (exhaustive n<=3 len<={max_len} + {random_b4} n=4), {failures} mismatches"
    return CriterionResult(8, "bridge-equals-oracle", failures == 0, detail,
                           time.perf_counter() - started)


def criterion_9() -> CriterionResult:
    """Stabilization changes the vector but not the bridge image."""
    started = time.perf_counter()
    one_strand = resolve(parse_word("1:"))
    stabilized = resolve(parse_word("2: 1"))
    distinct = one_strand != stabilized
    both_unknot = (homfly.to_homfly(one_strand) == HomflyPoly.one()
                   and homfly.to_homfly(stabilized) == HomflyPoly.one())
    detail = (f"vectors {'distinct' if distinct else 'EQUAL'}, "
              f"bridge images {'both 1' if both_unknot else 'WRONG'}")
    return CriterionResult(9, "stabilization-witness", distinct and both_unknot,
                           detail, time.perf_counter() - started)


def criterion_10(max_block_len: int = 3) -> CriterionResult:
    """Four-strand exchange divergence exists and stays link-type-safe."""
    started = time.perf_counter()
    hits = search_exchange_divergence(4, max_block_len)
    oracle_ok = all(hit.oracle_equal for hit in hits)
    knots = sum(1 for hit in hits if hit.is_knot)
    detail = (f"{len(hits)} diverging pairs at block<={max_block_len}, "
              f"{knots} close to knots, oracle agreement {'yes' if oracle_ok else 'NO'}")
    return CriterionResult(10, "four-strand-divergence", bool(hits) and oracle_ok,
                           detail, time.perf_counter() - started)


_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
              criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)

# reduced scales for quick mode; criteria not named run at full scale
_QUICK_SCALES = {
    criterion_2: {"max_n": 5},
    criterion_3: {"max_len": 4},
    criterion_4: {"max_flype_power": 2, "max_exchange_len": 2},
    criterion_5: {"samples": 120, "max_len": 8},
    criterion_6: {"target_words": 5, "max_len": 8, "attempt_cap": 800},
    criterion_7: {"samples": 40, "max_len": 8},
    criterion_8: {"max_len": 4, "random_b4": 20, "b4_len": 6},
    criterion_10: {"max_block_len": 2},
}


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run the gate; quick mode shrinks scales to finish within seconds."""
    return [criterion(**(_QUICK_SCALES.get(criterion, {}) if quick else {}))
            for criterion in _CRITERIA]
