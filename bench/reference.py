"""
Reference figures outside the workloads: full ``selftest`` and tier-1 time.

    python3 bench/reference.py [--out FILE.json]

runs ``python -m braidskein.cli selftest --json`` (full scale) and the
tier-1 test suite once each, from this checkout's src/, and prints one JSON
object with the wall time of each, every criterion's own time and verdict,
and the suite's summary line.  Neither needs a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=1800,
                          env=dict(os.environ, PYTHONPATH=path))
    return time.perf_counter() - started, done


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    selftest_s, selftest = timed([sys.executable, "-m", "braidskein.cli", "selftest", "--json"])
    tier1_s, tier1 = timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"])
    lines = tier1.stdout.strip().splitlines()
    result = {
        "selftest_s": selftest_s,
        "selftest_exit": selftest.returncode,
        "criteria": [{k: r[k] for k in ("number", "name", "passed", "seconds")}
                     for r in json.loads(selftest.stdout)],
        "tier1_s": tier1_s,
        "tier1_exit": tier1.returncode,
        "tier1_summary": lines[-1] if lines else "",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
