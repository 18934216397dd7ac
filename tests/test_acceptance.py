"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np

from bsdkit.domains import parse_spec
from bsdkit.invariants import distinguish, invariant_spectrum
from bsdkit.linalg import det, pfaffian
from bsdkit.polymaps import catalog
from bsdkit.verify import (
    _plan,
    check_F_U_lemma,
    check_coefficient_lemma,
    check_composition_rule,
    check_factorization,
    check_isotropy_consistency,
    check_properness,
    run_all,
)

SEED = 42
GRID = [round(0.1 * k, 10) for k in range(11)]


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_norm_transformation_kinds_i_iii():
    t0 = time.perf_counter()
    reports = [check_F_U_lemma(parse_spec(text), n_samples=200, tol=1e-9, seed=SEED)
               for text in ("I:2,2", "I:2,3", "III:2", "III:3")]
    elapsed = time.perf_counter() - t0
    worst = max(r.max_residual for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 5.0
    criterion(1, ok, f"kinds I/III transformation law, 200 triples x 4 specs: "
                     f"worst residual {worst:.2e} (tol 1e-9), {elapsed:.1f}s")


def test_criterion_2_kind_ii_squared_identity_and_pfaffian():
    reports = [check_F_U_lemma(parse_spec(text), n_samples=200, tol=1e-9, seed=SEED)
               for text in ("II:3", "II:4", "II:5")]
    worst = max(r.max_residual for r in reports)
    rng = np.random.default_rng(SEED)
    worst_pf = 0.0
    for k in range(100):
        n = (2, 4, 6, 8)[k % 4]
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
        a = g - g.T
        d = det(a)
        worst_pf = max(worst_pf, abs(pfaffian(a) ** 2 - d) / max(1.0, abs(d)))
    ok = all(r.passed for r in reports) and worst_pf <= 1e-10
    criterion(2, ok, f"kind II squared law residual {worst:.2e} (tol 1e-9); "
                     f"Pf^2=det residual {worst_pf:.2e} over 100 matrices (tol 1e-10)")


def test_criterion_3_kind_iv_constant_adjudication():
    reports = [check_F_U_lemma(parse_spec(text), n_samples=200, tol=1e-9, seed=SEED)
               for text in ("IV:3", "IV:4")]
    adjudicated = [next((n for n in r.notes if n.startswith("adjudicated constant:")), None)
                   for r in reports]
    ok = all(r.passed for r in reports) and all(a is not None for a in adjudicated)
    empirical = [next(n for n in r.notes if n.startswith("empirical constant:"))
                 for r in reports]
    criterion(3, ok, "kind IV adjudication over candidates {1, -1/2}: "
                     f"adjudicated={adjudicated}, {'; '.join(empirical)} "
                     "(no candidate matches the measured transformation constant)")


def test_criterion_4_coefficient_lemma():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for text in ("I:2,2", "I:2,3", "I:3,3", "II:4", "II:5", "III:2", "III:3"):
        spec = parse_spec(text)
        if spec.kind == "I":
            indices = [(i, j) for i in range(spec.r) for j in range(spec.s)]
        elif spec.kind == "II":
            indices = [(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)]
        else:
            indices = [(i, j) for i in range(spec.n) for j in range(i, spec.n)]
        for i, j in indices:
            rep = check_coefficient_lemma(spec, i, j, n_bases=20, tol=1e-6, seed=SEED)
            worst = max(worst, rep.max_residual)
            ok = ok and rep.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    criterion(4, ok, f"minor-determinant coefficients, 20 bases per index: "
                     f"worst rel err {worst:.2e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_5_composition_rule():
    pairs = [
        (catalog("standard", r=1, s=3, r2=1, s2=5), catalog("whitney-ball", n=2)),
        (catalog("whitney-ball", n=3), catalog("whitney-ball", n=2)),
        (catalog("gen-whitney", r=3, s=3), catalog("gen-whitney", r=2, s=2)),
    ]
    reports = [check_composition_rule(f, g, n_samples=100, tol=1e-8, seed=SEED)
               for f, g in pairs]
    worst = max(r.max_residual for r in reports)
    ok = all(r.passed for r in reports)
    criterion(5, ok, f"factor multiplicativity on 3 composable pairs x 100 samples: "
                     f"worst residual {worst:.2e} (tol 1e-8)")


def test_criterion_6_properness_of_catalog():
    worst = 0.0
    ok = True
    failing = []
    targets = [(cid.partition(":")[2], args[0]) for cid, check, args, _ in _plan(SEED, 500, 200)
               if check is check_properness]
    for label, f in targets:
        rep = check_properness(f, n_samples=500, tol=1e-7, seed=SEED)
        worst = max(worst, rep.max_residual)
        if not rep.passed:
            failing.append(label)
        ok = ok and rep.passed
    criterion(6, ok, f"boundary-to-boundary for all catalog instances, 500 samples each: "
                     f"worst |S(image)| {worst:.2e} (tol 1e-7), failing={failing or 'none'}")


def test_criterion_7_factorization_oracles():
    rep_w, coeffs_w = check_factorization(catalog("whitney-ball", n=2), degree_bound=2, seed=SEED)
    oracle = {"1": 1.0, "z12*conj(w12)": 1.0}
    err = max(abs(coeffs_w.get(k, 0.0) - v) for k, v in oracle.items())
    extra = max((abs(v) for k, v in coeffs_w.items() if k not in oracle), default=0.0)
    rep_s, coeffs_s = check_factorization(catalog("standard", r=2, s=2, r2=3, s2=3),
                                          degree_bound=2, seed=SEED)
    err_s = abs(coeffs_s.get("1", 0.0) - 1.0)
    extra_s = max((abs(v) for k, v in coeffs_s.items() if k != "1"), default=0.0)
    ok = (rep_w.passed and rep_s.passed
          and err <= 1e-8 and extra <= 1e-8 and err_s <= 1e-8 and extra_s <= 1e-8)
    criterion(7, ok, f"whitney-ball(2) factor is 1 + z2 conj(w2) (err {err:.2e}, "
                     f"spurious {extra:.2e}); standard embedding factor is 1 (err {err_s:.2e})")


def test_criterion_8_one_parameter_families_separate():
    ft = {t: catalog("f_t", t=t) for t in GRID}
    gt = {t: catalog("G_t", r=2, s=2, t=t) for t in GRID}
    ht = {t: catalog("h_t", t=t) for t in GRID}
    ok = True
    min_gap_f = min_gap_g = float("inf")
    for a in GRID:
        for b in GRID:
            if a >= b:
                continue
            rf = distinguish(ft[a], ft[b], tol=1e-8)
            rg = distinguish(gt[a], gt[b], tol=1e-8)
            rh = distinguish(ht[a], ht[b], tol=1e-8)
            ok = ok and rf.inequivalent and rg.inequivalent and rh.inequivalent
            min_gap_f = min(min_gap_f, rf.distances[1])
            min_gap_g = min(min_gap_g, rg.distances[1])
    ok = ok and min_gap_f >= 0.015 and min_gap_g >= 0.015
    worst_formula = 0.0
    for t in GRID:
        expected = np.sort([math.sqrt(2 * t / (2 - t)), math.sqrt(t), math.sqrt(t), 0.0])[::-1]
        got = invariant_spectrum(ft[t]).get(1, np.zeros(4))
        padded = np.zeros(4)
        padded[: len(got)] = got
        worst_formula = max(worst_formula, float(np.max(np.abs(padded - expected))))
    ok = ok and worst_formula <= 1e-12
    criterion(8, ok, f"f_t/G_t/h_t grids pairwise inequivalent; degree-1 gaps >= "
                     f"{min(min_gap_f, min_gap_g):.3f} (floor 0.015); f_t degree-1 spectrum "
                     f"matches closed form within {worst_formula:.1e} (tol 1e-12)")


def test_criterion_9_isotropy_invariance():
    reports = [
        check_isotropy_consistency(catalog("f_t", t=0.3), n_trials=100, tol=1e-10, seed=SEED),
        check_isotropy_consistency(catalog("gen-whitney", r=2, s=2), n_trials=100, tol=1e-10, seed=SEED),
    ]
    worst = max(r.max_residual for r in reports)
    ok = all(r.passed for r in reports)
    criterion(9, ok, f"100 random isotropy conjugations of f_t(0.3) and gen-whitney(2,2): "
                     f"max spectral drift {worst:.2e} (tol 1e-10)")


def test_criterion_10_determinism_and_runtime():
    t0 = time.perf_counter()
    first = run_all(seed=SEED)
    t1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = run_all(seed=SEED)
    t2 = time.perf_counter() - t0
    blob_a = json.dumps([r.to_dict() for r in first], sort_keys=True).encode()
    blob_b = json.dumps([r.to_dict() for r in second], sort_keys=True).encode()
    ok = blob_a == blob_b and t1 < 60.0 and t2 < 60.0
    criterion(10, ok, f"full suite twice with seed {SEED}: byte-identical={blob_a == blob_b}, "
                      f"runtimes {t1:.1f}s / {t2:.1f}s (< 60s)")
