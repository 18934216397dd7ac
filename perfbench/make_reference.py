"""Regenerate ``perfbench/reference.json`` from the program in ``src/``.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  It records, at the reference seed 42:

* ``verify-all``: every report's verdict and ``max_residual``, and the
  fitted coefficients of the three factorization reports;
* ``pointwise``: every check's verdict and ``max_residual``;
* ``spectra``: verdict, per-degree and maximum distance of every sweep
  pair, the maximum distance of every conjugation trial, and the invariant
  spectra of every grid map (what the CLI ``invariants`` queries return).

Verdicts must not depend on the seed: the script refuses to write a
reference unless seeds 7 and 1234 give the same verdict for every item.
Only a change that is meant to alter the program's outputs regenerates it.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
VERDICT_SEEDS = (7, 1234)


def verify_all(workloads, seed):
    wl = workloads.VerifyAll(seed)
    wl.setup()
    _, out = wl.run_pass()
    verdicts, residuals, coefficients = {}, {}, {}
    for report, (_, raw, family) in zip(out["reports"], out["records"]):
        verdicts[report.check_id] = bool(report.passed)
        residuals[report.check_id] = float(report.max_residual)
        if family == "factorization":
            coefficients[report.check_id] = {name: [c.real, c.imag]
                                             for name, c in sorted(raw[1].items())}
    return {"verdicts": verdicts, "max_residual": residuals, "coefficients": coefficients}


def pointwise(workloads, seed):
    wl = workloads.Pointwise(seed)
    wl.setup()
    _, out = wl.run_pass()
    return {
        "verdicts": {it["id"]: bool(r.passed) for it, r in zip(wl.items, out["outputs"])},
        "max_residual": {it["id"]: float(r.max_residual) for it, r in zip(wl.items, out["outputs"])},
    }


def spectra(workloads, bsdkit, seed):
    sweep, spectra_ref = {}, {}
    grid = workloads.FAMILY_GRID
    for fam in workloads.SWEEP_FAMILIES:
        maps = [workloads.family_map(fam, t) for t in grid]
        for a, f in enumerate(maps):
            spectra_ref[f"{fam}|{a}"] = {str(d): [float(v) for v in vals]
                                         for d, vals in bsdkit.invariant_spectrum(f).items()}
            for b in range(a + 1, len(maps)):
                r = bsdkit.distinguish(f, maps[b])
                sweep[f"{fam}|{a}|{b}"] = {
                    "verdict": r.verdict, "max_distance": r.max_distance,
                    "distances": {str(d): float(v) for d, v in r.distances.items()}}
    conjugate = {}
    for label in workloads.CONJUGATION_BASES:
        f = workloads.conjugation_base(label)
        for k in range(40):
            pre = bsdkit.random_isotropy_params(f.source, [seed, k, 0])
            post = bsdkit.random_isotropy_params(f.target, [seed, k, 1])
            r = bsdkit.distinguish(f, bsdkit.conjugate(f, pre, post))
            if r.verdict != bsdkit.INDISTINGUISHABLE:
                raise SystemExit(f"conjugation trial {label} {k} at seed {seed}: {r.verdict}")
            conjugate[f"{label}|{k}"] = r.max_distance
    return {"sweep": sweep, "conjugate": conjugate, "spectra": spectra_ref}


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import bsdkit
    import workloads

    ref = {
        "seed": workloads.REFERENCE_SEED,
        "verify-all": verify_all(workloads, workloads.REFERENCE_SEED),
        "pointwise": pointwise(workloads, workloads.REFERENCE_SEED),
        "spectra": spectra(workloads, bsdkit, workloads.REFERENCE_SEED),
    }
    for seed in VERDICT_SEEDS:
        for name, fn in (("verify-all", verify_all), ("pointwise", pointwise)):
            verdicts = fn(workloads, seed)["verdicts"]
            if verdicts != ref[name]["verdicts"]:
                diff = sorted(k for k in verdicts if verdicts[k] != ref[name]["verdicts"].get(k))
                raise SystemExit(f"{name}: verdicts at seed {seed} differ on {diff}")
        spectra(workloads, bsdkit, seed)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=False)
        fh.write("\n")
    print("wrote", os.path.join(HERE, "reference.json"))


if __name__ == "__main__":
    main()
