"""The CLI writes exactly the bytes recorded in ``cli_golden.json``.

Each record holds an argument list with its exit code, stdout and stderr.
For calls that argparse itself rejects only the exit code and the empty
stdout are recorded, because its usage text differs between Python
versions.  ``selftest`` is left out: its details carry timings.

Regenerate the data (only when the output is meant to change) with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from braidskein.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

WORDS = ["2: 1 1 1", "3: 1 -2 1 -2", "4: 1 -2 3 -1 2", "3: 1 1 1", "3:", "1:", "2: 3", "x"]
WORD_COMMANDS = ["resolve", "labels", "tree", "parity", "nugatory",
                 "homfly", "jones", "mfw", "certify3"]
BASEPOINT_COMMANDS = WORD_COMMANDS[:5]


def invocations() -> list[list[str]]:
    calls = [[command, word] for command in WORD_COMMANDS for word in WORDS]
    calls += [[command, "--basepoint", bp, word] for command in BASEPOINT_COMMANDS
              for word in WORDS[:4] for bp in ("2", "9")]
    calls += [["odd-change", "3: 1 -2 1 -2", *ids] for ids in (["1"], ["0", "2"], ["7"], ["1", "1"])]
    calls += [["flype-test", *abce] for abce in (["1", "2", "1", "-1"], ["2", "-1", "3", "1"],
                                                 ["1", "1", "1", "0"])]
    calls += [["exchange-test", u, v] for u, v in (("2: 1 1", "2: -1"), ("3: 1 -2", "3: 2 1"),
                                                   ("2: 1", "3: 1"))]
    calls += [["exchange-search", "--max-len", "1"]]
    calls = calls + [[call[0], "--json", *call[1:]] for call in calls]
    return calls + [["exchange-search", "--max-len", "-1"], [], ["resolv", "2: 1"]]


def record(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": None if stderr.startswith("usage:") else stderr}


def test_cli_output_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == invocations()
    differ = []
    for entry in golden:
        got = record(entry["argv"])
        if entry["stderr"] is None:
            got["stderr"] = None
        if got != entry:
            differ.append(entry["argv"])
    assert differ == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([record(argv) for argv in invocations()], indent=1) + "\n")
