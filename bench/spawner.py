"""
Run commands one at a time and report each one's time and peak RSS.

The benchmark starts this helper once and sends it one JSON argv list per
line on stdin; for each it runs the command to completion and answers one
JSON line: exit code, stdout, stderr, wall seconds and the child's own peak
RSS in KiB.  Commands run from a separate small process because Linux
charges a child, at exec, the peak RSS of the process it was spawned from:
spawned straight from the benchmark, every child would report at least the
benchmark's own peak.  Closing stdin stops the helper.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time

TIMEOUT_S = 150


def run(argv: list[str]) -> dict:
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            events = sel.select(timeout=1.0)
            if not events and time.perf_counter() - started > TIMEOUT_S:
                proc.kill()
            for key, _ in events:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    return {
        "code": proc.returncode,
        "stdout": b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
        "stderr": b"".join(chunks[proc.stderr]).decode("utf-8", "replace"),
        "seconds": seconds,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
