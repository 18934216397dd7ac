"""Self-test of the benchmark itself, at tiny scale.

    python3 perfbench/selftest.py

Run from the root of a checkout (about two minutes).  For each workload it
checks that

* a tiny untraced run passes its reference gate and emits exactly the
  ``end_to_end`` metrics of ``BENCHMARK.json``, each with its unit;
* a tiny traced run emits exactly the ``per_layer`` metrics, each with its
  unit;
* a tiny run with ``--perturb`` (the first item's reference verdict
  flipped) is flagged by the gate: ``correct`` false and ``failed`` >= 1;

and that the benchmark exits non-zero, printing no result, in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()


def run(command, args, cwd=ROOT):
    proc = subprocess.run(command + args, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def expect(cond, what, problems):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        problems.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    command = bench["command"]
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    # every workload, including pointwise, which BENCHMARK.json leaves out
    for w in ("verify-all", "pointwise", "spectra"):
        base = ["--workload", w, "--seed", "42", "--seconds", "1", "--scale", "tiny"]
        for trace in (0, 1):
            proc, result = run(command, base + ["--trace", str(trace)])
            ok = proc.returncode == 0 and result is not None
            expect(ok and result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{w} trace {trace}: exit 0 and the gate passes", problems)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()} if ok else {}
            expect(emitted == declared[trace],
                   f"{w} trace {trace}: every declared metric emitted with its unit", problems)
            if ok and emitted != declared[trace]:
                print("      missing:", sorted(set(declared[trace]) - set(emitted)),
                      "extra:", sorted(set(emitted) - set(declared[trace])))
        proc, result = run(command, base + ["--trace", "0", "--perturb"])
        expect(proc.returncode == 0 and result is not None and not result["correct"]
               and result["failed"] >= 1 and "FAILED" in proc.stderr,
               f"{w}: the gate flags a perturbed verdict", problems)

    bare = os.path.join(ROOT, ".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc, result = run(command, ["--workload", "spectra", "--seed", "42", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and result is None,
               "without the program's sources: non-zero exit and no result", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-test", "FAILED: " + "; ".join(problems) if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
