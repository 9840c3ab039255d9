#!/usr/bin/env python3
"""Summarise the benchmark results recorded in this checkout.

    python3 perfbench/summarize.py [--since YYYYMMDDTHHMMSS] [--json]

Reads ``.crowdbench/results/*.json`` (one file per ``run.py`` run) and, per
workload, gives each metric's median over runs, its quartiles, and the
quartile distance as a share of the median, which is the spread that the
metric's bound in ``BENCHMARK.json`` must cover. With ``--json`` it prints
the same as the ``baseline`` and ``reference_digests`` entries of
``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".crowdbench" / "results"


def load(since: str) -> list[dict]:
    runs = []
    for path in sorted(RESULTS.glob("*.json")):
        if path.stem.rsplit("-", 1)[-1] >= since:
            runs.append(json.loads(path.read_text()))
    return runs


def summarise(runs: list[dict]) -> tuple[dict, dict]:
    grouped: dict[str, dict[str, list[float]]] = {}
    digests: dict[str, dict] = {}
    errors: dict[str, list[float]] = {}
    for run in runs:
        workload = run["workload"] if not run["trace"] else f"{run['workload']} (traced)"
        for name, metric in run["metrics"].items():
            grouped.setdefault(workload, {}).setdefault(name, []).append(metric["median"])
        errors.setdefault(workload, []).append(run["error_rate"])
        if run["digests"]:
            digests[run["input"]["key"]] = run["digests"]
    baseline = {}
    for workload, metrics in grouped.items():
        rows = {}
        for name, values in metrics.items():
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[name] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "runs": len(values),
            }
        rows["error_rate"] = {"max": max(errors[workload]), "runs": len(errors[workload])}
        baseline[workload] = rows
    return baseline, digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--since", default="", help="only results stamped at or after this time")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    baseline, digests = summarise(load(args.since))
    if args.json:
        json.dump({"baseline": baseline, "reference_digests": digests}, sys.stdout, indent=1, sort_keys=True)
        print()
        return
    for workload, rows in sorted(baseline.items()):
        print(workload)
        for name, row in rows.items():
            if "median" in row:
                print(
                    f"  {name:<42} median {row['median']:<12.6g} q1 {row['q1']:<12.6g}"
                    f" q3 {row['q3']:<12.6g} spread {row['spread']:.4f} runs {row['runs']}"
                )
            else:
                print(f"  {name:<42} max {row['max']} runs {row['runs']}")


if __name__ == "__main__":
    main()
