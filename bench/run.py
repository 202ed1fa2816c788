"""
Benchmark for braidskein.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload (or ``all`` of them, one after another) from the source
tree of the checkout it sits in: at least S seconds of whole rounds of ops,
every output checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json untraced, its per-layer metrics with --trace 1.
The full result, with the seed, commit, Python version and CPU count, is
written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_OPS = 100     # so that at least ten latencies lie beyond the 90th percentile
SETUP_RUNS = 5    # fresh interpreters per set-up measurement; the median is kept
# A fixed reference time for probe(), near its typical time on the
# reference machine (a 2-vCPU Intel Xeon VM, Python 3.11.7).
# Every time the benchmark reports is rescaled by PROBE_REFERENCE_S / (probe
# time around the measurement), so runs report times at one fixed speed.
PROBE_REFERENCE_S = 0.00025


def probe() -> float:
    """Seconds this process takes for a fixed pure-Python loop, right now.

    On a shared machine the speed of a core changes from second to second;
    probing just before and after each measurement gives the factor that
    takes the change out.
    """
    start = time.perf_counter()
    x = 0
    table: dict[int, int] = {}
    for i in range(1500):
        x = (x * 31 + i) % 1000003
        table[i & 63] = x
    return time.perf_counter() - start


def timed(fn, *args):
    """Run fn; return its result, the exception it raised (or None), its
    raw seconds and the factor that rescales them to the reference speed."""
    before = probe()
    start = time.perf_counter()
    try:
        out, error = fn(*args), None
    except Exception as exc:  # the caller counts it as a failed op
        out, error = None, exc
    seconds = time.perf_counter() - start
    return out, error, seconds, 2 * PROBE_REFERENCE_S / (before + probe())


class Spawner:
    """Client of bench/spawner.py, which runs one child process at a time."""

    def __init__(self):
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path))

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended early")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class NullTracer:
    """Untraced runs: calls pass straight through."""

    active = False
    op = 0

    def call(self, name, fn, *args):
        return fn(*args)

    def record(self, name, seconds):
        pass

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    """Keeps one span per call in memory: (op id, name, start ns, end ns).

    The op id ties each layer span to the span of the op that caused it.
    """

    active = True

    def __init__(self):
        self.spans: list[tuple[int, str, int, int]] = []
        self.sizes: dict[str, list[int]] = {}

    def call(self, name, fn, *args):
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.op, name, start, time.perf_counter_ns()))

    def record(self, name, seconds):
        end = time.perf_counter_ns()
        self.spans.append((self.op, name, end - int(seconds * 1e9), end))

    def count(self, name, value):
        self.sizes.setdefault(name, []).append(value)


def measure(wl, seed: int, seconds: float, tr, min_ops: int = MIN_OPS) -> dict:
    """Run whole rounds until ``seconds`` have passed and ``min_ops`` ops ran.

    Latencies and busy time are rescaled to the reference speed op by op;
    ``scales`` keeps each op's factor (index 0: the per-run work) so that
    the traced run can rescale its spans the same way.
    """
    rng = random.Random(seed)
    latencies: list[float] = []
    problems: list[str] = []
    failures: list[str] = []
    start = time.perf_counter()
    extra, error, raw_busy, scale = timed(wl.per_run, tr)
    busy = raw_busy * scale
    scales = [scale]
    problems += [f"per-run work raised {error!r}"] if error else wl.check_per_run(extra)
    for ops in wl.rounds(rng):
        for op in ops:
            tr.op = len(scales)
            out, error, raw, scale = timed(wl.run, op, tr)
            scales.append(scale)
            busy += raw * scale
            raw_busy += raw
            tr.record("op", raw)
            if error:
                failures.append(f"{type(error).__name__}: {error}")
            else:
                latencies.append(raw * scale)
                try:
                    problems += wl.check(op, out)
                except Exception as exc:  # malformed output
                    problems.append(f"check raised {type(exc).__name__}: {exc}")
            if tr.active:
                wl.trace_extras(op, tr)
        if time.perf_counter() - start >= seconds and len(scales) > min_ops:
            break
    peak_kb = wl.peak_rss_kb()
    if peak_kb is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"latencies": latencies, "busy_s": busy, "raw_busy_s": raw_busy,
            "attempted": len(scales) - 1, "failures": failures, "problems": problems,
            "scales": scales, "peak_rss_kb": peak_kb}


def setup_seconds(spawner: Spawner, wl) -> float:
    """Median wall time of a fresh interpreter doing the workload's set-up.

    One unmeasured run first, so bytecode caches are warm for the others.
    """
    argv = [sys.executable] + wl.setup_argv
    times = []
    for attempt in range(SETUP_RUNS + 1):
        reply, error, _, scale = timed(spawner.run, argv)
        if error or reply["code"] != 0:
            raise RuntimeError(f"set-up run failed: {error or reply['stderr'][-500:]}")
        if attempt:
            times.append(reply["seconds"] * scale)
    return statistics.median(times)


def end_to_end(raw: dict, setup_s: float) -> dict[str, float]:
    lat = raw["latencies"]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / raw["busy_s"],
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }


def per_layer(names: list[str], raw: dict, tr: Tracer) -> dict[str, float]:
    """``X_s``: mean seconds per call of span X; ``X_calls``: its calls;
    a size count: its mean per recorded call."""
    durations: dict[str, list[float]] = {}
    for op, name, start, end in tr.spans:
        durations.setdefault(name, []).append((end - start) * raw["scales"][op])
    values = {}
    for metric in names:
        if metric == "bench.traced_ops_per_s":
            values[metric] = len(raw["latencies"]) / raw["busy_s"]
        elif metric == "bench.spans":
            values[metric] = len(tr.spans)
        elif metric.endswith("_calls"):
            values[metric] = len(durations.get(metric[:-6], ()))
        elif metric.endswith("_s"):
            spans = durations.get(metric[:-2])
            values[metric] = sum(spans) / len(spans) / 1e9 if spans else 0.0
        else:
            sizes = tr.sizes.get(metric)
            values[metric] = sum(sizes) / len(sizes) if sizes else 0.0
    return values


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(name: str, seed: int, seconds: int, traced: bool, spec: dict,
            spawner: Spawner) -> dict:
    import workloads

    wl = workloads.make(name, spawner, sys.executable)
    setup_s = None if traced else setup_seconds(spawner, wl)
    tr = Tracer() if traced else NullTracer()
    raw = measure(wl, seed, seconds, tr)
    if traced:
        keys = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(keys, raw, tr)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(raw, setup_s)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": len(raw["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for line in (raw["failures"][:5] + raw["problems"][:20]):
        print(f"{name}: {line}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = f"BENCH_{name}_seed{seed}_trace{int(traced)}"
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(traced),
                  ops_completed=len(raw["latencies"]),
                  unscaled_ops_per_s=len(raw["latencies"]) / raw["raw_busy_s"],
                  median_speed_factor=statistics.median(raw["scales"]),
                  failures=raw["failures"][:20], problems=raw["problems"][:50],
                  git_commit=git_commit(), python=platform.python_version(),
                  nproc=os.cpu_count(), platform=platform.platform(),
                  finished_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (OUT / f"{stem}_spans.json").write_text(json.dumps(tr.spans) + "\n")
    return result


def use_checkout_source() -> None:
    """Import braidskein from this checkout's src/, never from elsewhere."""
    if not (SRC / "braidskein" / "__init__.py").is_file():
        raise SystemExit(f"error: no braidskein source under {SRC}")
    sys.path.insert(0, str(SRC))
    import braidskein

    if Path(braidskein.__file__).resolve().parent != SRC / "braidskein":
        raise SystemExit(f"error: imported braidskein from {braidskein.__file__}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_source()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    spawner = Spawner()
    try:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), spec, spawner)
                   for name in chosen}
    finally:
        spawner.close()
    if len(results) == 1:
        print(json.dumps(results[chosen[0]]))
        return 0
    for name, result in results.items():
        print(name, json.dumps(result))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
