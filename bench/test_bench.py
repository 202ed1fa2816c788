"""
Quick test of the benchmark itself.

    python3 bench/test_bench.py      (or: python3 -m pytest bench -q)

Runs every workload for one round, checks the reference computations on
textbook values, and feeds each correctness check a deliberately corrupted
output, which it must reject.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.use_checkout_source()

import braidskein as bs  # noqa: E402
from braidskein import homfly  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _drop_one(terms: dict) -> dict:
    out = dict(terms)
    out.pop(next(iter(out)))
    return out


def _without_a_monomial(vector):
    entries = vector.entries()
    parts = next(iter(entries))
    entries[parts] = bs.LaurentAB(_drop_one(entries[parts].terms()))
    return bs.SkeinVector(vector.strand_count, entries)


# -- reference computations ---------------------------------------------------------


def test_state_sum_textbook_values():
    assert checks.jones_state_sum(1, []) == {0: 1}
    assert checks.jones_state_sum(2, []) == {-1: -1, 1: -1}            # unlink
    assert checks.jones_state_sum(2, [1, 1, 1]) == {2: 1, 6: 1, 8: -1}  # t + t^3 - t^4
    assert checks.jones_state_sum(2, [-1, -1, -1]) == {-2: 1, -6: 1, -8: -1}
    assert checks.jones_state_sum(2, [1, 1]) == {1: -1, 5: -1}        # Hopf link
    assert checks.jones_state_sum(3, [1, -2, 1, -2]) == {-4: 1, -2: -1, 0: 1, 2: -1, 4: 1}


def test_walk_and_components():
    # 2: 1 1 1 from strand 1: first crossing met on its over-strand, then
    # the walk returns along the under-strand of the second and third.
    assert checks.walk(2, [1, 1, 1]) == [True, False, True]
    assert checks.component_count(4, [1, 3]) == 2
    assert checks.component_count(3, []) == 3


def test_closed_forms():
    power = {(0, 0): 1}
    for k in range(6):
        assert checks.delta_power(k) == power
        power = checks.poly_mul(power, homfly.DELTA.terms())
    assert checks.split_jones_factor(1) == checks.jones_state_sum(2, [])
    assert checks.split_blocks(6, [1, -2, 5]) == [(1, 3, [1, -2]), (4, 1, []), (5, 2, [1])]
    assert checks.each_generator_once(4, [2, -1, 3])
    assert not checks.each_generator_once(3, [1, 1, 2])


# -- every workload, one round ----------------------------------------------------


def _one_round(name: str, traced: bool = False):
    spawner = run.Spawner()
    try:
        wl = workloads.make(name, spawner, sys.executable)
        tr = run.Tracer() if traced else run.NullTracer()
        return run.measure(wl, seed=7, seconds=0, tr=tr, min_ops=1), tr
    finally:
        spawner.close()


def test_every_workload_runs_clean():
    for name in ("long-words", "wide-strands", "small-words"):
        raw, _ = _one_round(name)
        assert raw["attempted"] > 0 and not raw["failures"], name
        assert not raw["problems"], (name, raw["problems"])


def test_cli_round_fails_exactly_the_probes():
    raw, tr = _one_round("cli-calls", traced=True)
    assert raw["attempted"] == 16 and not raw["problems"], raw["problems"]
    assert len(raw["failures"]) == len(workloads.PROBES), raw["failures"]
    layers = run.per_layer(["cli.main_calls", "cli.import_calls", "cli.process_s"], raw, tr)
    assert layers["cli.main_calls"] == 15 and layers["cli.import_calls"] == 1
    assert layers["cli.process_s"] > 0


# -- negative controls -------------------------------------------------------------


def test_checks_reject_corrupted_long_word_outputs():
    wl = workloads.LongWords()
    w = workloads.make_word(3, [1, -2, 1, -2, 2, 1])
    vector, jones = wl.run(w, run.NullTracer())
    assert wl.check(w, (vector, jones)) == []
    assert wl.check(w, (_without_a_monomial(vector), jones))
    assert wl.check(w, (vector, bs.JonesPoly(_drop_one(jones.terms()))))


def test_wide_check_rejects_sign_flipped_delta():
    wl = workloads.WideStrands()
    # 41: 1 closes to 40 components; an even power of DELTA would hide the sign
    words = [workloads.make_word(41, [1]), workloads.make_word(30, [2, 2, -3, 2, 20, -21, 20])]
    for w in words:
        assert wl.check(w, wl.run(w, run.NullTracer())) == []
    saved = homfly.DELTA
    homfly.DELTA = -saved
    try:
        for w in words:
            assert wl.check(w, wl.run(w, run.NullTracer()))
    finally:
        homfly.DELTA = saved


def test_small_word_checks_reject_corruption():
    wl = workloads.SmallWords()
    w = workloads.make_word(3, [1, 1, -2, 1, 2], extra=True)
    vectors, polys, oracle, parity, extra = wl.run(w, run.NullTracer())
    assert wl.check(w, (vectors, polys, oracle, parity, extra)) == []
    bad_polys = {**polys, 2: bs.HomflyPoly(_drop_one(polys[2].terms()))}
    assert wl.check(w, (vectors, bad_polys, oracle, parity, extra))
    scan, summed, certificate = extra
    bad_extra = (scan, _without_a_monomial(summed), certificate)
    assert wl.check(w, (vectors, polys, oracle, parity, bad_extra))
    mirrored = workloads.make_word(3, [-s for s in w.letters])
    assert workloads.state_sum_problems(mirrored, bs.jones(oracle).terms())


def test_exchange_check_rejects_a_non_pair():
    wl = workloads.SmallWords()
    hits = bs.search_exchange_divergence(4, 2)
    assert hits and wl.check_per_run(hits) == []
    fake = hits[0].__class__(hits[0].left, bs.parse_word("4: 1 2 3"), hits[0].left_vector,
                             hits[0].right_vector, True, hits[0].is_knot)
    assert wl.check_per_run([fake])
    assert wl.check_per_run([])


class _FakeSpawner:
    def __init__(self, reply):
        self.reply = reply

    def run(self, argv):
        return dict(self.reply, seconds=0.1, maxrss_kb=1)


def test_cli_checks_reject_bad_replies():
    ok_usage = workloads.CliCalls(_FakeSpawner({"code": 0, "stdout": "", "stderr": ""}), "python")
    try:
        ok_usage.run(workloads.PROBES[0], run.NullTracer())
    except workloads.OpFailed:
        pass
    else:
        raise AssertionError("exit 0 on a usage error must fail the op")
    wl = workloads.CliCalls(None, "python")
    w = workloads.make_word(3, [1, -2, 1, -2])
    usage = workloads.CliOp("usage", ["resolve", "3: 7"], (2,))
    assert wl.check(usage, {"code": 2, "stdout": "{}", "stderr": "error"})
    vector = bs.resolve(bs.parse_word(w.text))
    op = workloads.CliOp("resolve", ["resolve", "--json", w.text], (0,), w)
    good = {"code": 0, "stderr": "",
            "stdout": json.dumps({"strand_count": 3, "entries": vector.to_json_dict()})}
    assert wl.check(op, good) == []
    bad = json.dumps({"strand_count": 3, "entries": _without_a_monomial(vector).to_json_dict()})
    assert wl.check(op, dict(good, stdout=bad))
    labels = workloads.CliOp("labels", ["labels", "--json", w.text], (0,), w)
    assert wl.check(labels, dict(good, stdout='{"0": "bad", "1": "bad", "2": "bad", "3": "bad"}'))
    selftest = workloads.CliOp("selftest", ["selftest", "--quick", "--json"], (0,))
    assert wl.check(selftest, dict(good, stdout='[{"passed": false}]'))


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
