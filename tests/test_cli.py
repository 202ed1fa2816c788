import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import braidskein
from braidskein import cli
from braidskein.cli import main
from braidskein.homfly import HomflyPoly

TREFOIL = "2: 1 1 1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_resolve_trefoil_text(capsys):
    code, out, err = run(capsys, "resolve", TREFOIL)
    assert code == 0
    assert out == "(2): A + B^2 ; (1,1): A*B\n"
    assert err == ""


def test_resolve_json_round_trip(capsys):
    code, out, _ = run(capsys, "resolve", "--json", TREFOIL)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "strand_count": 2,
        "entries": {"2": {"1,0": 1, "0,2": 1}, "1,1": {"1,1": 1}},
    }


def test_resolve_honors_basepoint(capsys):
    code, out, _ = run(capsys, "resolve", "--basepoint", "2", "2: 1")
    assert code == 0
    assert out == "(2): A ; (1,1): B\n"


def test_labels_lines_in_word_order(capsys):
    code, out, _ = run(capsys, "labels", TREFOIL)
    assert code == 0
    assert out == "0: good\n1: bad\n2: good\n"


def test_tree_text_trefoil(capsys):
    code, out, _ = run(capsys, "tree", TREFOIL)
    assert code == 0
    assert out == (
        "2: 1 1 1\n"
        "  A -> 2: 1 -1 1 => (2)\n"
        "  B -> 2: 1 1\n"
        "    A -> 2: 1 -1 => (1,1)\n"
        "    B -> 2: 1 => (2)\n"
    )


def test_tree_json_leaf_partitions(capsys):
    code, out, _ = run(capsys, "tree", "--json", TREFOIL)
    assert code == 0
    data = json.loads(out)
    assert data["word"] == TREFOIL
    assert data["edge"] is None
    flip, delete = data["children"]
    assert flip["partition"] == "2"
    assert delete["children"][0]["partition"] == "1,1"


def test_parity_text(capsys):
    code, out, _ = run(capsys, "parity", TREFOIL)
    assert code == 0
    assert out == "k=1 p=1 n=0 ok\n"


def test_parity_json(capsys):
    code, out, _ = run(capsys, "parity", "--json", TREFOIL)
    assert code == 0
    assert json.loads(out) == {"k": 1, "p": 1, "n": 0, "ok": True}


def test_nugatory_single_crossing(capsys):
    code, out, _ = run(capsys, "nugatory", "2: 1")
    assert code == 0
    assert out == "base: (2): 1\n0: different delta=-1\nall-differ: yes\n"


def test_odd_change_even_set_reports_without_failing(capsys):
    code, out, _ = run(capsys, "odd-change", TREFOIL, "0", "1")
    assert code == 0
    assert "ids: 0 1 (even)" in out


def test_odd_change_unknown_id_is_usage_error(capsys):
    code, out, err = run(capsys, "odd-change", TREFOIL, "99")
    assert code == 2
    assert out == ""
    assert "99" in err


def test_homfly_trefoil(capsys):
    code, out, _ = run(capsys, "homfly", TREFOIL)
    assert code == 0
    assert out == "-l^-4 - 2*l^-2 + l^-2*m^2\n"


def test_jones_trefoil(capsys):
    code, out, _ = run(capsys, "jones", TREFOIL)
    assert code == 0
    assert out == "t + t^3 - t^4\n"


def test_jones_json_names_unit(capsys):
    code, out, _ = run(capsys, "jones", "--json", TREFOIL)
    assert code == 0
    data = json.loads(out)
    assert data["unit"] == "t^(1/2)"
    assert data["terms"] == {"2": 1, "6": 1, "8": -1}


def test_mfw_values(capsys):
    assert run(capsys, "mfw", TREFOIL)[:2] == (0, "2\n")
    assert run(capsys, "mfw", "3: 1 -2 1 -2")[:2] == (0, "3\n")


def test_certify3_certified(capsys):
    code, out, _ = run(capsys, "certify3", "3: 1 -2 1 -2")
    assert code == 0
    assert out == "Certified\n"


def test_certify3_unknown_exits_one(capsys):
    code, out, _ = run(capsys, "certify3", "3: 1 2")
    assert code == 1
    assert out == "Unknown\n"


def test_certify3_rejects_other_strand_counts(capsys):
    code, _, err = run(capsys, "certify3", "2: 1 1 1")
    assert code == 2
    assert err != ""


def test_flype_test_equal(capsys):
    code, out, _ = run(capsys, "flype-test", "1", "2", "1", "-1")
    assert code == 0
    assert "left:  3: 1 2 2 1 -2" in out
    assert "right: 3: 1 -2 1 2 2" in out
    assert "verdict: equal" in out


def test_exchange_test_equal(capsys):
    code, out, _ = run(capsys, "exchange-test", "2: 1 1", "2: -1")
    assert code == 0
    assert "verdict: equal" in out


def test_exchange_test_mismatched_blocks(capsys):
    code, _, err = run(capsys, "exchange-test", "2: 1", "3: 1")
    assert code == 2
    assert "strand count" in err


def test_exchange_search_finds_divergence(capsys):
    code, out, _ = run(capsys, "exchange-search", "--max-len", "2")
    assert code == 0
    assert out.startswith("diverging pairs: 96 (block length <= 2), 32 close to knots\n")
    assert "oracle=MISMATCH" not in out


def test_exchange_search_json(capsys):
    code, out, _ = run(capsys, "exchange-search", "--json", "--max-len", "2")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 96
    assert data["knot_count"] == 32
    assert all(pair["oracle_equal"] for pair in data["pairs"])


def test_empty_word_is_usage_error(capsys):
    code, out, err = run(capsys, "resolve", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_out_of_range_basepoint_is_usage_error(capsys):
    code, _, err = run(capsys, "resolve", "--basepoint", "5", "2: 1")
    assert code == 2
    assert "basepoint" in err


def test_missing_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "braidskein" in out


def test_output_is_deterministic(capsys):
    first = run(capsys, "tree", "--json", "3: 1 -2 1 -2")
    second = run(capsys, "tree", "--json", "3: 1 -2 1 -2")
    assert first == second


def test_selftest_quick_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 10
    assert all(line.startswith("PASS criterion") for line in lines)


def test_selftest_quick_json(capsys):
    code, out, _ = run(capsys, "selftest", "--quick", "--json")
    assert code == 0
    data = json.loads(out)
    assert [entry["number"] for entry in data] == list(range(1, 11))
    assert all(entry["passed"] for entry in data)


@pytest.mark.parametrize("argv", [
    ("resolve", "2: 3"),
    ("parity", "xyz"),
    ("flype-test", "1", "2", "1", "0"),
    ("mfw", "2: 0"),
    ("resolve", "3: 1 \u0662"),
    ("exchange-search", "--max-len", "-1"),
    ("tree", "2:" + " -1" * 300),  # over the tree's letter budget
    # over the search's leaf budget; each generator has one sign, so no pair cancels
    ("resolve", "7:" + " 1 -2 3 -4 5 -6" * 7),
    # over the strand budget
    *((command, "99999999999999999999: 1") for command in (
        "resolve", "labels", "tree", "parity", "nugatory", "homfly", "mfw", "jones")),
    # over the bridge's parts budget
    *((command, "5002: 1") for command in ("homfly", "mfw", "jones")),
    # over the flype's letter budget; past 2**63 letters it overflowed a C index
    ("flype-test", "99999999999999999999", "0", "0", "1"),
    # over the Hecke product's budget, on five and on six strands: each stops
    # once its running charge passes it, after 4-5 s
    ("resolve", "5:" + " 1 2 3 4" * 500),
    ("resolve", "6:" + " 1 2 3 4 5" * 240),
])
def test_bad_inputs_exit_two(capsys, argv):
    assert run(capsys, *argv)[0] == 2


def test_long_coefficient_prints(capsys, monkeypatch):
    digits = "1" + "0" * 4999
    monkeypatch.setattr(cli, "to_homfly", lambda vector: HomflyPoly({(0, 0): 10 ** 4999}))
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = digit_limit()
    for argv in (["homfly", "2: 1"], ["homfly", "--json", "2: 1"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert digits in out
    assert digit_limit() == limit


def test_overlong_letter_token_is_usage_error(capsys):
    # 5000 digits of value 1: rejected for its length, whatever the interpreter's limit.
    code, out, err = run(capsys, "resolve", "2: " + "0" * 4999 + "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad letter token")


def test_internal_error_exits_three(capsys, monkeypatch):
    def overflow(word, basepoint):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "resolution_tree", overflow)
    code, out, err = run(capsys, "tree", "2: 1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: RecursionError")
    assert err.count("\n") == 1


def test_closed_stdout_exits_quietly():
    # 320 KB of tree output cannot fit in the pipe once the reader is gone.
    package_root = str(Path(braidskein.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    word = "2:" + " -1" * 16
    child = subprocess.Popen([sys.executable, "-m", "braidskein.cli", "tree", word],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == f"{word}\n".encode()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert err == b""


# -- the exit-code contract under fuzzing -------------------------------------------

WORDS = [
    "2: 1 1 1", "3: 1 -2 1 -2", "1:", "3:", "2: -1", "4: 1 -3 2", "3: 2 2 -1",
    # bad words
    "2: 3", "2: 0", "0:", "-5: 1", "xyz", "", "3: 1 \u0662", "3: 1_0",
    # past the strand budget, and past the bridge's parts budget
    "99999999999999999999: 1", "5002: 1",
]
# the last is past every budget and past a C index
NUMBERS = ["-1", "0", "1", "2", "xyz", "99999999999999999999"]
OPTIONS = ["--json", "--basepoint", "--quick", "--max-len", "--help"]
# the argument slots of each command; every example stays fast, so selftest
# runs at its quick scale and the exchange search at --max-len 2 or less, or
# past its pair budget (its default is 3)
SLOTS = {
    **dict.fromkeys(["resolve", "labels", "tree", "parity", "nugatory", "homfly", "jones",
                     "mfw", "certify3"], [WORDS]),
    "odd-change": [WORDS, NUMBERS, NUMBERS],
    "flype-test": [NUMBERS, NUMBERS, NUMBERS, ["1", "-1", "0", "2"]],
    "exchange-test": [WORDS, WORDS],
    "exchange-search": [["--max-len"], ["-1", "0", "1", "2", "99999999999999999999"]],
    "selftest": [["--quick"]],
}
argvs = st.sampled_from(sorted(SLOTS)).flatmap(lambda command: st.tuples(
    st.just([command]), st.tuples(*(st.sampled_from(pool) for pool in SLOTS[command])),
    st.lists(st.sampled_from(WORDS + NUMBERS + OPTIONS), max_size=3),
)).map(lambda parts: [*parts[0], *parts[1], *parts[2]])


@settings(max_examples=300, deadline=None)
@given(argvs)
def test_every_argv_keeps_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "internal error" not in err.getvalue()
