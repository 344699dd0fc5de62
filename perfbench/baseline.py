"""Run the benchmark on several seeds per workload and summarise the spread.

From the repository root::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload it runs ``run.py`` once per seed untraced and once traced
(first seed), and writes every result plus, per end-to-end metric, the
median, the quartiles and the quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values),
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        config = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = config["run_seconds"]
    document = {"host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                        f"Python {platform.python_version()}",
                "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(bench(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in runs[-1]["metrics"].items()}, flush=True)
        traced = bench(workload, args.seeds[0], seconds, 1)
        document["workloads"][workload] = {
            "summary": summary(runs), "runs": runs, "traced": traced,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}
        for name, s in document["workloads"][workload]["summary"].items():
            print(f"  {name:<16} median {s['median']:.5g} {s['unit']:<5} "
                  f"spread {s['spread']:.4f}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
