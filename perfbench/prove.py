"""Run the benchmark once per seed and report the spread of each metric.

    python3 perfbench/prove.py --workloads ideal lnd dossier --seeds 1-10
    python3 perfbench/prove.py --workloads lnd --seeds 1-5 --record out.json

For every workload and end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json. A spread must stay below a third of its bound for the
benchmark to count as steady (setup_s is exempt). Runs are sequential:
two at once would measure each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics as stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="write every run's result line to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, steady = [], True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']}"
                  f" failed {result['failed']}/{result['attempted']} {values}",
                  flush=True)
            results.append(result)
            runs.append({"workload": workload, "seed": seed,
                         "trace": args.trace, "result": result})
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            spread = stats.quartile_spread(values) if len(values) > 1 else 0.0
            bound = bounds.get(name) if not args.trace else None
            verdict = ""
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady &= ok
                verdict = "steady" if ok else "NOT STEADY"
            print(f"  {workload:<8} {name:<36} median {statistics.median(values):12.6g}"
                  f"  spread {spread:7.4f}"
                  + (f"  bound {bound}  {verdict}" if bound is not None else ""))
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
