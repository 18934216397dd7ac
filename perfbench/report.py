"""Run every workload once, untraced, and print all end-to-end metrics.

    python3 perfbench/report.py [--seed 42] [--seconds 25]

Covers ``pointwise`` as well, which ``BENCHMARK.json`` leaves out.  Run from the root of a checkout.  Each workload runs in its own fresh
process through ``run.py``, which also applies the reference gate; the
error rate is failed over attempted items.  Exits 1 if any gate failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    all_correct = True
    for name in ("verify-all", "pointwise", "spectra"):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit {proc.returncode}, no result")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        print(f"{name} (seed {args.seed}, {seconds} s): gate "
              f"{'passed' if result['correct'] else 'FAILED'}")
        for metric, m in result["metrics"].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {metric:14s} {value:>12s} {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':14s} {rate:12.6g} ratio "
              f"({result['failed']} of {result['attempted']} items)")
        sys.stderr.write(proc.stderr)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
