"""Steadiness check: two sets of runs per workload, each metric's spread against its bound.

    python3 bench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 bench/steady.py --runs 5 --sets 1 --workloads harvest

For every workload and end-to-end metric it prints, per set, the median
and the spread (distance between first and third quartile, as a share of
the median), then how much worse the second set's median is than the
first's.  A metric passes when each spread and the drift between the sets
stay within the bound in BENCHMARK.json, and the share of failed
operations is the same in every run.  Seeds run from 1 upwards, one per
run.  Exit code 1 when anything fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for k in range(args.runs):
                seed = 1 + s * args.runs + k
                result = one_run(workload, seed, spec["run_seconds"])
                ok &= result["correct"]
                runs.append(result)
                print(f"{workload} seed {seed}: {json.dumps(result)}", flush=True)
            sets.append(runs)
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        ratios = {f / a for f, a in shares}
        print(f"\n{workload}: failed/attempted {sorted(shares)} -> {'same share' if len(ratios) == 1 else 'SHARES DIFFER'}")
        ok &= len(ratios) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                sp = spread(values) if len(values) > 1 else 0.0
                fine = sp <= bound
                ok &= fine
                cells.append(f"median {medians[-1]:10.4f} spread {sp:6.1%}{'' if fine else ' !'}")
            drift = ""
            if len(medians) > 1:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                ok &= worse <= bound
                drift = f"  second worse by {worse:6.1%}{'' if worse <= bound else ' !'}"
            print(f"  {name:20s} bound {bound:4.0%}  " + "  |  ".join(cells) + drift)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
