"""
Summarize the benchmark's result files.

    python3 bench/summarize.py [RESULT.json ...] [--out SUMMARY.json]

reads the files bench/run.py wrote (by default every bench/out/BENCH_*.json)
and prints, per workload and metric, the run count, median and quartiles,
and the spread: the distance between the quartiles as a share of the
median.  Traced runs are summarized apart from untraced ones, and the
tracing overhead is the drop in throughput from the untraced median to the
traced one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"runs": len(values), "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    for record in records:
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    summary: dict = {}
    for (workload, trace), runs in sorted(groups.items()):
        entry = summary.setdefault(workload, {})
        names = runs[0]["metrics"]
        entry["traced" if trace else "untraced"] = {
            "seeds": sorted(r["seed"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": {name: dict(describe([r["metrics"][name]["value"] for r in runs]),
                               unit=names[name]["unit"]) for name in names},
        }
    for entry in summary.values():
        if "traced" in entry and "untraced" in entry:
            plain = entry["untraced"]["metrics"]["ops_per_s"]["median"]
            traced = entry["traced"]["metrics"]["bench.traced_ops_per_s"]["median"]
            entry["tracing_overhead"] = 1 - traced / plain
    first = records[0]
    summary["_machine"] = {k: first[k] for k in ("git_commit", "python", "nproc", "platform")}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    files = args.files or sorted((HERE / "out").glob("BENCH_*.json"))
    records = [json.loads(f.read_text()) for f in files if not f.name.endswith("_spans.json")]
    if not records:
        print("no result files", file=sys.stderr)
        return 2
    summary = summarize(records)
    for workload, entry in summary.items():
        if workload.startswith("_"):
            continue
        for mode in ("untraced", "traced"):
            if mode not in entry:
                continue
            print(f"{workload} ({mode}, seeds {entry[mode]['seeds']})")
            for name, d in entry[mode]["metrics"].items():
                if d["median"]:
                    spread = f"  spread {d['spread']:.3f}" if "spread" in d else ""
                    print(f"  {name:34s} {d['median']:14.6g} {d['unit']}{spread}")
        if "tracing_overhead" in entry:
            print(f"  tracing overhead: {entry['tracing_overhead']:+.1%} of untraced ops/s")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
