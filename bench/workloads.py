"""
The four benchmark workloads.

Each workload makes its inputs from a seeded ``random.Random``, runs one op
(one word, or one CLI invocation) through its pipeline inside the timed
section, and checks the op's outputs afterwards, outside it.  Checks compare
against the reference computations in ``checks`` or against properties the
method must have, never against stored outputs.

Every call into a package module goes through ``tr.call(span, fn, *args)``:
a no-op pass-through in the untraced run, a span in the traced one.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass

import braidskein as bs
from braidskein import acceptance, cli

import checks


class OpFailed(Exception):
    """An op ended in a way the program's documented contract rules out."""


@dataclass
class Word:
    text: str
    n: int
    letters: list[int]
    extra: bool = False  # small-words: also run the seeded-subset calls


def make_word(n: int, letters: list[int], extra: bool = False) -> Word:
    body = " ".join(str(s) for s in letters)
    return Word(f"{n}: {body}".rstrip(), n, letters, extra)


def random_letters(rng, n: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def bfree(vector) -> int | None:
    """A-exponent of the vector's only B-free monomial, None if malformed."""
    found = [(a, c) for poly in vector.entries().values()
             for (a, b), c in poly.terms().items() if b == 0]
    if len(found) != 1 or found[0][1] != 1:
        return None
    return found[0][0]


def parity_problems(w: Word, vector, basepoint: int = 1) -> list[str]:
    good = checks.walk(w.n, w.letters, basepoint)
    k = bfree(vector)
    if k is None:
        return [f"{w.text} bp {basepoint}: no unique B-free monomial with coefficient 1"]
    if k != checks.bad_balance(w.letters, good):
        return [f"{w.text} bp {basepoint}: B-free exponent {k} != bad balance"]
    return []


def jones_at_one_problems(w: Word, jones_terms: dict[int, int]) -> list[str]:
    c = checks.component_count(w.n, w.letters)
    if sum(jones_terms.values()) != (-2) ** (c - 1):
        return [f"{w.text}: Jones at t=1 is not (-2)^({c}-1)"]
    return []


def state_sum_problems(w: Word, jones_terms: dict[int, int]) -> list[str]:
    if jones_terms != checks.jones_state_sum(w.n, w.letters):
        return [f"{w.text}: Jones differs from the Kauffman state sum"]
    return []


def l_breadth_bound(poly) -> int:
    exponents = [le for le, _ in poly.terms()]
    return (max(exponents) - min(exponents) + 1) // 2 + 1


def vector_terms(vector) -> int:
    return sum(len(poly.terms()) for poly in vector.entries().values())


class Workload:
    name = ""
    setup_argv: list[str] = []  # interpreter arguments of one set-up run

    def rounds(self, rng):
        """Yield lists of ops forever; a run attempts whole rounds."""
        raise NotImplementedError

    def run(self, op, tr):
        raise NotImplementedError

    def check(self, op, out) -> list[str]:
        raise NotImplementedError

    def per_run(self, tr):
        """Timed work done once per run, outside any op."""
        return None

    def check_per_run(self, out) -> list[str]:
        return []

    def trace_extras(self, op, tr) -> None:
        """Untimed calls made only in the traced run."""

    def peak_rss_kb(self) -> int | None:
        """Peak RSS of the process doing the work; None means this one."""
        return None


def _script(body: str) -> list[str]:
    return ["-c", "import braidskein as b\nw = b.parse_word('3: 1 -2 1 -2')\n" + body]


class LongWords(Workload):
    name = "long-words"
    setup_argv = _script("b.jones(b.to_homfly(b.resolve(w)))")

    def rounds(self, rng):
        while True:
            yield [make_word(n, random_letters(rng, n, length))
                   for n in (2, 3, 4, 6) for length in (18, 19, 20, 21)]

    def run(self, w, tr):
        word = tr.call("words.parse", bs.parse_word, w.text)
        vector = tr.call("resolution.resolve", bs.resolve, word)
        poly = tr.call("homfly.bridge", bs.to_homfly, vector)
        jones = tr.call("homfly.jones", bs.jones, poly)
        if tr.active:
            tr.count("skein.vector_terms", vector_terms(vector))
            tr.count("homfly.poly_terms", len(poly.terms()))
        return vector, jones

    def check(self, w, out):
        vector, jones = out
        return parity_problems(w, vector) + jones_at_one_problems(w, jones.terms())


class WideStrands(Workload):
    name = "wide-strands"
    setup_argv = _script("b.label_only(w)\nb.jones(b.to_homfly(b.resolve(w)))")

    def rounds(self, rng):
        """A fixed grid of strand counts, each jittered by up to 5%."""
        def jitter(n):
            return n + rng.randint(-n // 20, n // 20)

        while True:
            ops = [make_word(n, [1]) for n in map(jitter, (150, 250, 350))]
            ops += [make_word(n, list(range(1, n))) for n in map(jitter, (600, 800, 1000))]
            ops += [self._split(rng, jitter(n), count)
                    for n, count in ((100, 2), (175, 3), (250, 2))]
            yield ops

    @staticmethod
    def _split(rng, n: int, count: int) -> Word:
        """Small connected blocks on disjoint strand ranges of n strands."""
        chunk = n // count
        letters = []
        for b in range(count):
            k = rng.randint(2, 3)
            block = random_letters(rng, k, rng.randint(k - 1, 4))
            block += [g * rng.choice((1, -1)) for g in range(1, k)
                      if g not in {abs(s) for s in block}]
            rng.shuffle(block)
            shift = chunk * b + rng.randint(0, chunk - k)
            letters += [s + shift if s > 0 else s - shift for s in block]
        return make_word(n, letters)

    def run(self, w, tr):
        word = tr.call("words.parse", bs.parse_word, w.text)
        labels = tr.call("resolution.label", bs.label_only, word)
        vector = tr.call("resolution.resolve", bs.resolve, word)
        poly = tr.call("homfly.bridge", bs.to_homfly, vector)
        jones = tr.call("homfly.jones", bs.jones, poly)
        if tr.active:
            tr.count("skein.vector_terms", vector_terms(vector))
            tr.count("homfly.poly_terms", len(poly.terms()))
        return labels, vector, poly, jones

    def check(self, w, out):
        labels, vector, poly, jones = out
        problems = parity_problems(w, vector)
        good = checks.walk(w.n, w.letters)
        if [labels[cid].value == "good" for cid in range(len(w.letters))] != good:
            problems.append(f"{w.text[:40]}: label_only differs from the walk")
        jones_terms = jones.terms()
        problems += jones_at_one_problems(w, jones_terms)
        blocks = checks.split_blocks(w.n, w.letters)
        homfly = checks.delta_power(len(blocks) - 1)
        split_jones = checks.split_jones_factor(len(blocks) - 1)
        for _, strands, letters in blocks:
            if checks.each_generator_once(strands, letters):
                continue  # an unknot: polynomial 1
            block = bs.BraidWord.from_signed(strands, letters)
            state_sum = checks.jones_state_sum(strands, letters)
            if bs.jones(bs.to_homfly(bs.resolve(block))).terms() != state_sum:
                problems.append(f"block {letters}: Jones differs from the state sum")
            homfly = checks.poly_mul(homfly, bs.homfly_oracle(block).terms())
            split_jones = checks.poly_mul(split_jones, state_sum)
        if poly.terms() != homfly:
            problems.append(f"{w.text[:40]}: HOMFLY is not the block product times DELTA^(r-1)")
        if jones_terms != split_jones:
            problems.append(f"{w.text[:40]}: Jones is not the block product")
        return problems


class SmallWords(Workload):
    name = "small-words"
    setup_argv = _script(
        "v = b.compare_basepoints(w)\nb.to_homfly(v[1])\nb.homfly_oracle(w)\n"
        "b.parity_consistency(w)\nb.nugatory_scan(w)\n"
        "b.tree_vector(b.resolution_tree(w))\nb.certify_braid_index_3(w)\n"
        "b.search_exchange_divergence(4, 1)")
    EXTRA_SHARE = 1 / 8

    def rounds(self, rng):
        three = [list(s) for length in range(7)
                 for s in itertools.product((1, -1, 2, -2), repeat=length)]
        queue: list[list[int]] = []
        while True:
            ops = []
            for _ in range(8):
                if not queue:
                    queue = three[:]
                    rng.shuffle(queue)
                ops.append(make_word(3, queue.pop(), rng.random() < self.EXTRA_SHARE))
            for _ in range(24):
                ops.append(make_word(4, random_letters(rng, 4, rng.randint(4, 9)),
                                     rng.random() < self.EXTRA_SHARE))
            yield ops

    def run(self, w, tr):
        word = tr.call("words.parse", bs.parse_word, w.text)
        vectors = tr.call("resolution.basepoints", bs.compare_basepoints, word)
        polys = {bp: tr.call("homfly.bridge", bs.to_homfly, v) for bp, v in vectors.items()}
        oracle = tr.call("homfly.oracle", bs.homfly_oracle, word)
        parity = tr.call("analysis.parity", bs.parity_consistency, word)
        extra = None
        if w.extra:
            scan = tr.call("analysis.nugatory", bs.nugatory_scan, word)
            tree = tr.call("resolution.tree", bs.resolution_tree, word)
            summed = tr.call("resolution.tree_vector", bs.tree_vector, tree)
            certificate = None
            if w.n == 3:
                certificate = tr.call("homfly.certify3", bs.certify_braid_index_3, word)
            if tr.active:
                tr.count("resolution.tree_leaves", bs.leaf_count(tree))
            extra = scan, summed, certificate
        if tr.active:
            for v in vectors.values():
                tr.count("skein.vector_terms", vector_terms(v))
            for p in polys.values():
                tr.count("homfly.poly_terms", len(p.terms()))
        return vectors, polys, oracle, parity, extra

    def check(self, w, out):
        vectors, polys, oracle, parity, extra = out
        problems = []
        for bp, vector in vectors.items():
            problems += parity_problems(w, vector, bp)
            if polys[bp] != oracle:
                problems.append(f"{w.text} bp {bp}: bridge image differs from the oracle")
        jones_terms = bs.jones(oracle).terms()
        problems += state_sum_problems(w, jones_terms)
        problems += jones_at_one_problems(w, jones_terms)
        good = checks.walk(w.n, w.letters)
        positive = sum(1 for s, g in zip(w.letters, good) if s > 0 and not g)
        negative = sum(1 for s, g in zip(w.letters, good) if s < 0 and not g)
        if (parity.k, parity.positive_bad, parity.negative_bad, parity.ok) != (
                positive - negative, positive, negative, True):
            problems.append(f"{w.text}: parity report {parity.format()} disagrees with the walk")
        if extra is not None:
            problems += self._check_extra(w, vectors[1], polys[1], *extra)
        return problems

    @staticmethod
    def _check_extra(w, vector, poly, scan, summed, certificate) -> list[str]:
        problems = []
        if summed != vector:
            problems.append(f"{w.text}: tree_vector differs from resolve")
        k = checks.bad_balance(w.letters, checks.walk(w.n, w.letters))
        if scan.base_vector != vector or len(scan.entries) != len(w.letters):
            problems.append(f"{w.text}: nugatory scan has the wrong base or length")
        for row, entry in enumerate(scan.entries):
            flipped = w.letters[:row] + [-w.letters[row]] + w.letters[row + 1:]
            delta = checks.bad_balance(flipped, checks.walk(w.n, flipped)) - k
            if entry.bfree_delta != delta or abs(delta) != 1 or not entry.differs:
                problems.append(f"{w.text}: nugatory entry {row} is not a +-1 move")
        if certificate is not None:
            expected = "Certified" if l_breadth_bound(poly) == 3 else "Unknown"
            if certificate.value != expected:
                problems.append(f"{w.text}: certify3 says {certificate.value}")
        return problems

    def per_run(self, tr):
        return tr.call("templates.exchange_search", bs.search_exchange_divergence, 4, 2)

    def check_per_run(self, hits):
        problems = [] if hits else ["exchange search found no diverging pair"]
        for hit in hits:
            left, right = list(hit.left.signed_indices()), list(hit.right.signed_indices())
            top = left.index(3) if 3 in left else -1
            shaped = (top >= 0 and left[-1] == -3 and right[top] == -3
                      and right[-1] == 3 and left[:top] == right[:top]
                      and left[top + 1:-1] == right[top + 1:-1]
                      and all(abs(s) <= 2 for s in left[:top] + left[top + 1:-1]))
            if not shaped:
                problems.append(f"{hit.left}: not an exchange pair")
                continue
            if hit.left_vector == hit.right_vector:
                problems.append(f"{hit.left}: listed although the vectors agree")
            if bs.homfly_oracle(hit.left) != bs.homfly_oracle(hit.right) or not hit.oracle_equal:
                problems.append(f"{hit.left}: oracle polynomials differ")
            if checks.jones_state_sum(4, left) != checks.jones_state_sum(4, right):
                problems.append(f"{hit.left}: state-sum Jones values differ")
            if hit.is_knot != (checks.component_count(4, left) == 1):
                problems.append(f"{hit.left}: wrong knot flag")
        return problems


# -- CLI ------------------------------------------------------------------------


@dataclass
class CliOp:
    kind: str
    argv: list[str]
    expect: tuple[int, ...]
    word: Word | None = None
    basepoint: int = 1


# Two faults the documented contract rules out, so they count as failed ops
# until fixed: a non-ASCII digit is parsed as a letter, and a negative block
# length is accepted.
PROBES = [
    CliOp("probe", ["resolve", "--json", "3: 1 ٢"], (2,)),
    CliOp("probe", ["exchange-search", "--json", "--max-len", "-1"], (2,)),
]


def _usage_errors(rng) -> list[CliOp]:
    n = rng.randint(2, 4)
    w = make_word(n, random_letters(rng, n, rng.randint(1, 4)))
    return [
        CliOp("usage", ["resolve", "--json", f"{n}: {n}"], (2,)),
        CliOp("usage", ["labels", "--json", f"x: {n - 1}"], (2,)),
        CliOp("usage", ["certify3", "--json", w.text if n != 3 else "4: 1 2"], (2,)),
        CliOp("usage", ["resolve", "--json", "--basepoint", str(n + 1), w.text], (2,)),
        CliOp("usage", ["odd-change", "--json", w.text, str(len(w.letters) + 3)], (2,)),
        CliOp("usage", ["resolv", w.text], (2,)),
    ]


class CliCalls(Workload):
    name = "cli-calls"
    WORD_KINDS = ["resolve", "resolve", "labels", "tree", "parity", "nugatory",
                  "homfly", "jones", "mfw", "certify3"]

    def __init__(self, spawner, python: str):
        self.spawner = spawner
        self.prefix = [python, "-m", "braidskein.cli"]
        self.setup_argv = ["-m", "braidskein.cli", "resolve", "--json", "2: 1 1 1"]
        self.peak_kb = 0

    def rounds(self, rng):
        while True:
            ops = []
            for kind in self.WORD_KINDS:
                n = 3 if kind == "certify3" else rng.randint(2, 4)
                w = make_word(n, random_letters(rng, n, rng.randint(2, 6)))
                op = CliOp(kind, [kind, "--json", w.text], (0,), w)
                if ops and ops[-1].kind == "resolve" and kind == "resolve":
                    op.basepoint = rng.randint(1, n)
                    op.argv[2:2] = ["--basepoint", str(op.basepoint)]
                if kind == "certify3":
                    op.expect = (0, 1)
                ops.append(op)
            ops += rng.sample(_usage_errors(rng), 3) + PROBES
            ops.append(CliOp("selftest", ["selftest", "--quick", "--json"], (0,)))
            rng.shuffle(ops)
            yield ops

    def run(self, op, tr):
        reply = self.spawner.run(self.prefix + op.argv)
        tr.record("cli.process", reply["seconds"])
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        if reply["code"] not in op.expect:
            raise OpFailed(f"{' '.join(op.argv)}: exit {reply['code']}, expected {op.expect}")
        return reply

    def trace_extras(self, op, tr):
        if op.kind == "selftest":
            tr.call("acceptance.selftest_quick", acceptance.run_all, True)
            reply = self.spawner.run([self.prefix[0], "-c", "import braidskein.cli"])
            tr.record("cli.import", reply["seconds"])
            return
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            tr.call("cli.main", cli.main, op.argv)

    def peak_rss_kb(self):
        return self.peak_kb

    def check(self, op, reply):
        out, err = reply["stdout"], reply["stderr"]
        if 2 in op.expect:
            if out or not err:
                return [f"{' '.join(op.argv)}: usage error must write only to stderr"]
            return []
        try:
            data = json.loads(out)
        except ValueError:
            return [f"{' '.join(op.argv)}: stdout is not JSON"]
        if op.kind == "selftest":
            ok = len(data) == 10 and all(r["passed"] for r in data)
            return [] if ok else ["selftest --quick did not pass 10 criteria"]
        return getattr(self, "_check_" + op.kind)(op, op.word, data, reply["code"])

    @staticmethod
    def _check_resolve(op, w, data, code):
        vector = bs.SkeinVector.from_json_dict(w.n, data["entries"])
        problems = parity_problems(w, vector, op.basepoint)
        jones = bs.jones(bs.to_homfly(vector)).terms()
        return problems + state_sum_problems(w, jones)

    @staticmethod
    def _check_labels(op, w, data, code):
        good = checks.walk(w.n, w.letters)
        if [data[str(cid)] == "good" for cid in range(len(w.letters))] != good:
            return [f"labels {w.text}: differ from the walk"]
        return []

    @staticmethod
    def _check_tree(op, w, data, code):
        problems = []

        def total(node):
            if "partition" in node:
                letters = [int(t) for t in node["word"].partition(":")[2].split()]
                parts = tuple(int(p) for p in node["partition"].split(","))
                if len(parts) != checks.component_count(w.n, letters):
                    problems.append(f"tree {w.text}: leaf {node['word']} has the wrong pattern")
                return bs.SkeinVector.singleton(w.n, parts)
            out = bs.SkeinVector(w.n)
            for child in node["children"]:
                edge = bs.LaurentAB.from_json_dict(child["edge"])
                out = out + total(child).scale(edge)
            return out

        vector = total(data)
        problems += parity_problems(w, vector)
        return problems + state_sum_problems(w, bs.jones(bs.to_homfly(vector)).terms())

    @staticmethod
    def _check_parity(op, w, data, code):
        good = checks.walk(w.n, w.letters)
        p = sum(1 for s, g in zip(w.letters, good) if s > 0 and not g)
        n = sum(1 for s, g in zip(w.letters, good) if s < 0 and not g)
        if (data["k"], data["p"], data["n"], data["ok"]) != (p - n, p, n, True):
            return [f"parity {w.text}: {data} disagrees with the walk"]
        return []

    @staticmethod
    def _check_nugatory(op, w, data, code):
        k = checks.bad_balance(w.letters, checks.walk(w.n, w.letters))
        problems = []
        for row, entry in enumerate(data["crossings"]):
            flipped = w.letters[:row] + [-w.letters[row]] + w.letters[row + 1:]
            delta = checks.bad_balance(flipped, checks.walk(w.n, flipped)) - k
            if entry["bfree_delta"] != delta or not entry["differs"]:
                problems.append(f"nugatory {w.text}: entry {row} is not a +-1 move")
        if len(data["crossings"]) != len(w.letters) or not data["all_differ"]:
            problems.append(f"nugatory {w.text}: wrong length or verdict")
        return problems

    @staticmethod
    def _check_homfly(op, w, data, code):
        poly = bs.HomflyPoly.from_json_dict(data["terms"])
        return state_sum_problems(w, bs.jones(poly).terms())

    @staticmethod
    def _check_jones(op, w, data, code):
        return state_sum_problems(w, {int(e): c for e, c in data["terms"].items()})

    @staticmethod
    def _check_mfw(op, w, data, code):
        bridge = bs.to_homfly(bs.resolve(bs.parse_word(w.text)))
        if not 1 <= data["bound"] <= w.n or data["bound"] != l_breadth_bound(bridge):
            return [f"mfw {w.text}: bound {data['bound']} is not the bridge's l-breadth bound"]
        return []

    @staticmethod
    def _check_certify3(op, w, data, code):
        bridge = bs.to_homfly(bs.resolve(bs.parse_word(w.text)))
        expected = "Certified" if l_breadth_bound(bridge) == 3 else "Unknown"
        if data["certificate"] != expected or code != (0 if expected == "Certified" else 1):
            return [f"certify3 {w.text}: {data['certificate']} exit {code}"]
        return []


def make(name: str, spawner, python: str) -> Workload:
    if name == "cli-calls":
        return CliCalls(spawner, python)
    return {"long-words": LongWords, "wide-strands": WideStrands,
            "small-words": SmallWords}[name]()
