"""Fold alternating parent/change benchmark runs into one BENCH_<n>.json.

    python3 tools/benchsum.py --parent P/result-*.json --change C/result-*.json \\
        --out BENCH_8.json

Each input is a ``bench/out/result-<workload>-seed<seed>.json`` written by
``bench/run.py`` in a checkout of the parent or of the change. For every
workload and end-to-end metric the summary records each side's values by seed,
median, quartiles and IQR, the relative change of the medians, and the pair
wins: over the seeds run on both sides, how often the change read better, how
often the parent did, and how many tied. The direction of "better" is read
from BENCHMARK.json at the repository root (lower when a metric is not listed).
The environments the runs recorded are kept as they are. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def load_runs(paths) -> list[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    return runs


def directions(spec_path: Path = SPEC) -> dict[str, str]:
    if not spec_path.is_file():
        return {}
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for kind in ("end_to_end", "per_layer")
            for m in spec.get(kind, [])}


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def pair_wins(parent: dict[int, float], change: dict[int, float], better: str) -> dict:
    wins = {"change": 0, "parent": 0, "ties": 0}
    for seed in sorted(set(parent) & set(change)):
        p, c = parent[seed], change[seed]
        if p == c:
            wins["ties"] += 1
        elif (c < p) == (better == "lower"):
            wins["change"] += 1
        else:
            wins["parent"] += 1
    return wins


def summarize(parent_runs: list[dict], change_runs: list[dict],
              better: dict[str, str] | None = None) -> dict:
    better = better or {}
    by_side = {"parent": parent_runs, "change": change_runs}
    workloads: dict[str, dict] = {}
    for side, runs in by_side.items():
        for run in runs:
            w = workloads.setdefault(run["workload"], {s: {} for s in SIDES})
            if run["seed"] in w[side]:
                raise ValueError(f"two {side} runs of {run['workload']} with seed {run['seed']}")
            w[side][run["seed"]] = run

    out = {}
    for name, sides in sorted(workloads.items()):
        seeds = {side: sorted(sides[side]) for side in SIDES}
        entry = {"seeds": seeds,
                 "paired_seeds": sorted(set(seeds["parent"]) & set(seeds["change"])),
                 "all_correct": {side: all(r["correct"] for r in sides[side].values())
                                 for side in SIDES},
                 "attempted": {side: sum(r["attempted"] for r in sides[side].values())
                               for side in SIDES},
                 "failed": {side: sum(r["failed"] for r in sides[side].values())
                            for side in SIDES},
                 "metrics": {}}
        metric_names = sorted({m for side in SIDES for r in sides[side].values()
                               for m in r["metrics"]})
        for metric in metric_names:
            values = {side: {seed: r["metrics"][metric]["value"]
                             for seed, r in sides[side].items() if metric in r["metrics"]}
                      for side in SIDES}
            if not values["parent"] or not values["change"]:
                continue
            unit = next(r["metrics"][metric]["unit"] for side in SIDES
                        for r in sides[side].values() if metric in r["metrics"])
            direction = better.get(metric, "lower")
            stats = {side: spread(list(values[side].values())) for side in SIDES}
            entry["metrics"][metric] = {
                "unit": unit, "better": direction,
                "parent": {**stats["parent"], "by_seed": values["parent"]},
                "change": {**stats["change"], "by_seed": values["change"]},
                "median_change": stats["change"]["median"] / stats["parent"]["median"] - 1.0
                if stats["parent"]["median"] else None,
                "pair_wins": pair_wins(values["parent"], values["change"], direction),
            }
        out[name] = entry

    def environments(runs):
        distinct = []
        for run in runs:
            if run.get("environment") not in distinct:
                distinct.append(run.get("environment"))
        return distinct

    return {"runs": {side: len(runs) for side, runs in by_side.items()},
            "environment": {side: environments(runs) for side, runs in by_side.items()},
            "workloads": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    parser.add_argument("--out", help="write the summary here instead of to stdout")
    args = parser.parse_args(argv)
    summary = summarize(load_runs(args.parent), load_runs(args.change), directions())
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
