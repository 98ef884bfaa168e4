"""Run one workload at several seeds and summarize the figures.

    python3 perfbench/summarize.py --workload scale_d2 --seeds 1-10 --seconds 30
    python3 perfbench/summarize.py --workload scale_d2 --seeds 1-3 --seconds 30 --overhead

Runs ``perfbench/run.py`` once per seed, one process after another, from
the repository root.  Prints each metric's median, quartiles and
interquartile spread as a share of the median, and the share of failed
operations.  With ``--overhead`` it also runs the traced run at each seed
and prints how far the traced end-to-end figures (saved with the spans)
differ from the untraced ones.
"""

import argparse
import json
from fractions import Fraction
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    results, shares, overhead = [], set(), {}
    for seed in args.seeds:
        res = run(args.workload, seed, args.seconds, 0)
        results.append(res)
        shares.add(Fraction(res["failed"], res["attempted"]))
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed {res['failed']}/{res['attempted']} {line}",
              flush=True)
        if args.overhead:
            traced = run(args.workload, seed, args.seconds, 1)
            doc = json.loads((BENCH / "out" / f"trace_{args.workload}_{seed}.json").read_text())
            for k, v in doc["end_to_end_traced"].items():
                overhead.setdefault(k, []).append(v / res["metrics"][k]["value"] - 1.0)
            print(f"  traced: correct={traced['correct']} jobs={doc['jobs']}", flush=True)
    print(f"{args.workload}: {len(results)} runs, failed share {sorted(str(s) for s in shares)}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        print(f"  {name:20s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / med:.2%}")
    for name, vals in overhead.items():
        print(f"  traced/untraced - 1 {name:20s} median {statistics.median(vals):+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
