"""The three benchmark workloads and their reference gate.

Every workload calls only bsdkit's public functions, looked up at call time
(``bsdkit.distinguish(...)``), so the layer wrappers of a traced run see
them.  ``setup()`` generates every input from the workload seed; a pass runs
all items once and returns the outputs, and ``gate()`` checks each output
against the committed reference.

An item's status is ``ok``, ``known`` (it reproduces a documented red
result: the two kind IV F_U reports, and the ``dangelo`` CLI query that the
selector grammar rejects) or ``failed`` (it raised, exited 2 where the
reference says 0, or disagrees with the reference).
"""

import contextlib
import io
import json
import math
import os
import time

import numpy as np

import bsdkit
import bsdkit.cli
import bsdkit.verify

OK, KNOWN, FAILED = "ok", "known", "failed"

# Roundoff bounds of the reference comparison, applied as
# |value - reference| <= ATOL + RTOL * |reference|.
RESIDUAL_ATOL, RESIDUAL_RTOL = 1e-12, 1e-9    # report max_residual
COEFF_ATOL = 1e-9                              # factorization coefficients
DISTANCE_ATOL = 1e-12                          # spectral distances and spectra

REFERENCE_SEED = 42

FU_SPECS = ("I:1,1", "I:2,2", "I:2,3", "I:3,3", "II:2", "II:3", "II:4", "II:5",
            "III:1", "III:2", "III:3", "IV:3", "IV:4")

FAMILY_GRID = [k / 20.0 for k in range(21)]
SWEEP_FAMILIES = ("f_t", "g_t", "h_t", "G_t(2,2)", "G_t(3,3)")
CONJUGATION_BASES = ("f_t(0.3)", "h_t(0.5)", "gen-whitney(3,3)", "G_t(3,3,0.5)")

# The rejected CLI query of the spectra workload and the message it gets today.
DANGELO_ARGV = ["distinguish", "--map-a", "dangelo:2", "--map-b", "dangelo:2"]
DANGELO_MESSAGE = "dangelo needs a dimension and --theta"


# verify check function -> family name used in item ids and metric names
CHECK_FAMILIES = {
    "check_F_U_lemma": "fu",
    "check_properness": "properness",
    "check_coefficient_lemma": "coeff",
    "check_composition_rule": "composition",
    "check_factorization": "factorization",
    "check_isotropy_consistency": "isotropy",
    "check_family_continuity": "continuity",
}
PAIR_FAMILIES = ("factorization", "composition")


def close(value, ref, atol, rtol=0.0):
    return abs(value - ref) <= atol + rtol * abs(ref)


def properness_targets():
    """The 22 properness targets of ``run_all``, built from the catalog."""
    catalog = bsdkit.catalog
    out = [
        ("standard(2,2,3,3)", catalog("standard", r=2, s=2, r2=3, s2=3)),
        ("f-sec4", catalog("f-sec4")),
        ("g-sec4", catalog("g-sec4")),
        ("gen-whitney(2,2)", catalog("gen-whitney", r=2, s=2)),
        ("gen-whitney(3,3)", catalog("gen-whitney", r=3, s=3)),
        ("G_t(2,2,0.5)", catalog("G_t", r=2, s=2, t=0.5)),
        ("G_t(3,3,0.5)", catalog("G_t", r=3, s=3, t=0.5)),
    ]
    for n in (2, 3, 4):
        out.append((f"whitney-ball({n})", catalog("whitney-ball", n=n)))
        out.append((f"dangelo({n},pi/4)", catalog("dangelo", n=n, theta=math.pi / 4)))
    for t in (0.0, 0.5, 1.0):
        for family in ("f_t", "g_t", "h_t"):
            out.append((f"{family}({t})", catalog(family, t=t)))
    return out


def composition_pairs():
    """The three (outer, inner) composition pairs of ``run_all``."""
    catalog = bsdkit.catalog
    return [
        ("composition:standard.whitney-ball",
         catalog("standard", r=1, s=3, r2=1, s2=5), catalog("whitney-ball", n=2)),
        ("composition:whitney-ball.whitney-ball",
         catalog("whitney-ball", n=3), catalog("whitney-ball", n=2)),
        ("composition:gen-whitney.gen-whitney",
         catalog("gen-whitney", r=3, s=3), catalog("gen-whitney", r=2, s=2)),
    ]


def family_map(family, t):
    if family.startswith("G_t"):
        r = int(family[4])
        return bsdkit.catalog("G_t", r=r, s=r, t=t)
    return bsdkit.catalog(family, t=t)


def family_selector(family, t):
    """CLI arguments selecting the same map as :func:`family_map`."""
    if family.startswith("G_t"):
        return [f"G_t:{t!r}"], ["--dims", f"{family[4]},{family[4]}"]
    return [f"{family}:{t!r}"], []


def conjugation_base(label):
    catalog = bsdkit.catalog
    return {
        "f_t(0.3)": lambda: catalog("f_t", t=0.3),
        "h_t(0.5)": lambda: catalog("h_t", t=0.5),
        "gen-whitney(3,3)": lambda: catalog("gen-whitney", r=3, s=3),
        "G_t(3,3,0.5)": lambda: catalog("G_t", r=3, s=3, t=0.5),
    }[label]()


class Workload:
    """Common state: seed, scale, reference and the self-test perturbation."""

    name = ""
    tail_quantile = 0.73       # of 38 items per pass: 10 beyond

    def __init__(self, seed, scale="full", reference=None, perturb=False, workdir="."):
        self.seed = seed
        self.scale = scale
        self.reference = reference
        self.perturb = perturb
        self.workdir = workdir

    @property
    def compare_values(self):
        """Values (not only verdicts) are compared at the reference seed and scale."""
        return self.seed == REFERENCE_SEED and self.scale == "full"

    def expected_verdict(self, verdict, first):
        """The reference verdict; the self-test flips the first item's."""
        if self.perturb and first:
            return not verdict if isinstance(verdict, bool) else "perturbed-" + verdict
        return verdict


class VerifyAll(Workload):
    """``run_all(seed)`` exactly as shipped; one item is one report.

    Per-report latency comes from hooks on the seven ``verify.check_*``
    names that ``run_all`` resolves, installed for the duration of a pass.
    """

    name = "verify-all"
    tail_quantile = 0.88       # of 88 reports per pass: 10 beyond

    def setup(self):
        self.kwargs = {} if self.scale == "full" else {"properness_samples": 10,
                                                       "fu_samples": 10}

    def run_pass(self, tracer=None):
        records = []
        clock = time.perf_counter
        saved = {}
        for name, family in CHECK_FAMILIES.items():
            saved[name] = getattr(bsdkit.verify, name)

            def hooked(*args, _inner=saved[name], _family=family, **kwargs):
                if tracer is not None:
                    tracer.item = len(records)
                start = clock()
                out = _inner(*args, **kwargs)
                records.append((start, clock(), out, _family))
                return out

            setattr(bsdkit.verify, name, hooked)
        try:
            start = clock()
            reports = bsdkit.run_all(self.seed, **self.kwargs)
            end = clock()
        finally:
            for name, fn in saved.items():
                setattr(bsdkit.verify, name, fn)
            if tracer is not None:
                tracer.item = -1
        return (start, end), {"reports": reports, "records": records}

    def gate(self, output):
        """Per-report statuses as (item_id, status, message), and the
        (start, end) wall times of each report's check call."""
        reports, records = output["reports"], output["records"]
        ref = self.reference["verify-all"]
        ids = [r.check_id for r in reports]
        if ids != list(ref["verdicts"]) or len(records) != len(reports):
            return [("run_all", FAILED, f"report list differs from the reference: {len(ids)} "
                     f"reports, {len(records)} timed checks")], None
        out, spans = [], []
        for k, (report, (start, end, raw, _)) in enumerate(zip(reports, records)):
            cid = report.check_id
            spans.append((start, end))
            expected = self.expected_verdict(ref["verdicts"][cid], k == 0)
            status, msg = (OK, "") if report.passed else (KNOWN, "documented red check")
            if report.passed != expected:
                status, msg = FAILED, f"verdict {report.passed}, reference {expected}"
            elif self.compare_values:
                r_ref = ref["max_residual"][cid]
                if not close(report.max_residual, r_ref, RESIDUAL_ATOL, RESIDUAL_RTOL):
                    status, msg = FAILED, f"max_residual {report.max_residual!r}, reference {r_ref!r}"
                elif cid in ref["coefficients"]:
                    bad = coefficient_mismatch(raw[1], ref["coefficients"][cid])
                    if bad:
                        status, msg = FAILED, bad
            out.append((cid, status, msg))
        return out, spans

    def counters(self, output):
        """Items that draw (Z, W) pairs, the pairs they used, CLI rejections."""
        pair_items, used = [], 0
        for k, (_, _, raw, family) in enumerate(output["records"]):
            if family in PAIR_FAMILIES:
                pair_items.append(k)
                used += (raw[0] if isinstance(raw, tuple) else raw).samples
        return {"pair_items": pair_items, "pairs_used": used, "cli_rejected": 0}


def coefficient_mismatch(fitted, reference):
    for name in sorted(set(fitted) | set(reference)):
        c = fitted.get(name, 0j)
        re, im = reference.get(name, (0.0, 0.0))
        if abs(c - complex(re, im)) > COEFF_ATOL:
            return f"coefficient {name}: {c!r}, reference {complex(re, im)!r}"
    return ""


class ItemWorkload(Workload):
    """A workload whose items the benchmark calls one by one."""

    passes = 0

    def run_pass(self, tracer=None):
        """Run every item once, in an order shuffled afresh for each pass
        from the seed, so that no kind of item always meets the same part
        of a pass; outputs and (start, end) wall times are kept in item
        order."""
        clock = time.perf_counter
        n = len(self.items)
        outputs, spans = [None] * n, [None] * n
        order = np.random.default_rng([self.seed, 1502, self.passes]).permutation(n).tolist()
        self.passes += 1
        start = clock()
        for k in order:
            if tracer is not None:
                tracer.item = k
            t0 = clock()
            try:
                out = self.items[k]["call"]()
            except Exception as exc:  # an item that raises is a failed item
                out = exc
            spans[k] = (t0, clock())
            outputs[k] = out
        end = clock()
        if tracer is not None:
            tracer.item = -1
        return (start, end), {"outputs": outputs, "spans": spans}

    def gate(self, output):
        """Per-item statuses as (item_id, status, message), and item
        (start, end) wall times."""
        out = []
        for k, (item, value) in enumerate(zip(self.items, output["outputs"])):
            if isinstance(value, Exception):
                out.append((item["id"], FAILED, f"raised {value!r}"))
            else:
                status, msg = item["check"](item["key"], value, k == 0)
                out.append((item["id"], status, msg))
        return out, output["spans"]

    def counters(self, output):
        """Items that draw (Z, W) pairs, the pairs they used, CLI rejections."""
        pair_items, used, rejected = [], 0, 0
        for k, (item, value) in enumerate(zip(self.items, output["outputs"])):
            if item["id"].split(":")[0] in PAIR_FAMILIES and not isinstance(value, Exception):
                pair_items.append(k)
                used += value.samples
            elif isinstance(value, dict) and value.get("code") == 2:
                rejected += 1
        return {"pair_items": pair_items, "pairs_used": used, "cli_rejected": rejected}


class Pointwise(ItemWorkload):
    """F_U on 13 specs, properness on the 22 run_all targets, 3 composition
    pairs; one item is one check call."""

    name = "pointwise"

    def setup(self):
        full = self.scale == "full"
        fu_n, prop_n, comp_n = (200, 500, 100) if full else (10, 10, 5)
        seed = self.seed
        items = []
        for text in FU_SPECS:
            spec = bsdkit.parse_spec(text)
            items.append((f"fu:{text}", lambda spec=spec: bsdkit.check_F_U_lemma(
                spec, n_samples=fu_n, seed=seed)))
        for label, f in properness_targets():
            items.append((f"properness:{label}", lambda f=f: bsdkit.check_properness(
                f, n_samples=prop_n, seed=seed)))
        for cid, outer, inner in composition_pairs():
            items.append((cid, lambda f=outer, g=inner: bsdkit.check_composition_rule(
                f, g, n_samples=comp_n, seed=seed)))
        self.items = [{"id": item_id, "key": item_id, "call": call, "check": self._check}
                      for item_id, call in items]

    def _check(self, item_id, report, first):
        ref = self.reference["pointwise"]
        expected = self.expected_verdict(ref["verdicts"][item_id], first)
        if report.passed != expected:
            return FAILED, f"verdict {report.passed}, reference {expected}"
        if self.compare_values:
            r_ref = ref["max_residual"][item_id]
            if not close(report.max_residual, r_ref, RESIDUAL_ATOL, RESIDUAL_RTOL):
                return FAILED, f"max_residual {report.max_residual!r}, reference {r_ref!r}"
        return (OK, "") if report.passed else (KNOWN, "documented red check")


class Spectra(ItemWorkload):
    """Pairwise ``distinguish`` sweeps, conjugation trials and a share of the
    same queries typed through ``bsdkit.cli.main``; one item is one query."""

    name = "spectra"
    tail_quantile = 0.99       # of 1221 queries per pass: 12 beyond

    def setup(self):
        full = self.scale == "full"
        grid_idx = list(range(21)) if full else [0, 5, 10, 15, 20]
        n_conj = 40 if full else 2
        n_cli_pairs, n_cli_maps = (30, 10) if full else (3, 2)
        rng = np.random.default_rng([self.seed, 1501])
        maps = {(fam, a): family_map(fam, FAMILY_GRID[a]) for fam in SWEEP_FAMILIES
                for a in grid_idx}
        pairs = [(fam, a, b) for fam in SWEEP_FAMILIES for i, a in enumerate(grid_idx)
                 for b in grid_idx[i + 1:]]
        cli_pairs = set(rng.choice(len(pairs), size=n_cli_pairs, replace=False).tolist())
        os.makedirs(self.workdir, exist_ok=True)
        items = []
        for k, (fam, a, b) in enumerate(pairs):
            if k in cli_pairs:
                continue
            items.append({"id": f"sweep:{fam}:{a}:{b}", "key": f"{fam}|{a}|{b}",
                          "call": lambda f=maps[(fam, a)], g=maps[(fam, b)]: bsdkit.distinguish(f, g),
                          "check": self._check_sweep})
        for label in CONJUGATION_BASES:
            f = conjugation_base(label)
            for k in range(n_conj):
                pre = bsdkit.random_isotropy_params(f.source, [self.seed, k, 0])
                post = bsdkit.random_isotropy_params(f.target, [self.seed, k, 1])
                items.append({"id": f"conjugate:{label}:{k}", "key": f"{label}|{k}",
                              "call": lambda f=f, pre=pre, post=post: bsdkit.distinguish(
                                  f, bsdkit.conjugate(f, pre, post)),
                              "check": self._check_conjugate})
        for n, k in enumerate(sorted(cli_pairs)):
            fam, a, b = pairs[k]
            sel_a, dims = family_selector(fam, FAMILY_GRID[a])
            sel_b, _ = family_selector(fam, FAMILY_GRID[b])
            path = os.path.join(self.workdir, f"cli-distinguish-{n}.json")
            argv = ["distinguish", "--map-a", *sel_a, "--map-b", *sel_b, *dims,
                    "--no-timestamp", "--out", path]
            items.append(self._cli_item(f"cli:sweep:{fam}:{a}:{b}", f"{fam}|{a}|{b}", argv, path,
                                        self._check_cli_distinguish))
        map_keys = sorted(maps)
        for n, k in enumerate(rng.choice(len(map_keys), size=n_cli_maps, replace=False).tolist()):
            fam, a = map_keys[k]
            sel, dims = family_selector(fam, FAMILY_GRID[a])
            path = os.path.join(self.workdir, f"cli-invariants-{n}.json")
            argv = ["invariants", "--map-a", *sel, *dims, "--no-timestamp", "--out", path]
            items.append(self._cli_item(f"cli:invariants:{fam}:{a}", f"{fam}|{a}", argv, path,
                                        self._check_cli_invariants))
        path = os.path.join(self.workdir, "cli-dangelo.json")
        items.append(self._cli_item("cli:distinguish:dangelo:2", "dangelo",
                                    DANGELO_ARGV + ["--no-timestamp", "--out", path], path,
                                    self._check_dangelo))
        self.items = items

    def _cli_item(self, item_id, key, argv, path, check):
        def call():
            if os.path.exists(path):
                os.remove(path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = bsdkit.cli.main(argv)
            return {"code": code, "stderr": err.getvalue(), "path": path}

        return {"id": item_id, "key": key, "call": call, "check": check}

    @property
    def ref(self):
        return self.reference["spectra"]

    def _verdict(self, key, first):
        return self.expected_verdict(self.ref["sweep"][key]["verdict"], first)

    def _compare_result(self, key, verdict, max_distance, distances, first):
        ref = self.ref["sweep"][key]
        expected = self._verdict(key, first)
        if verdict != expected:
            return FAILED, f"verdict {verdict}, reference {expected}"
        if set(distances) != set(ref["distances"]):
            return FAILED, f"degrees {sorted(distances)}, reference {sorted(ref['distances'])}"
        for d, v in distances.items():
            if not close(v, ref["distances"][d], DISTANCE_ATOL):
                return FAILED, f"degree {d} distance {v!r}, reference {ref['distances'][d]!r}"
        if not close(max_distance, ref["max_distance"], DISTANCE_ATOL):
            return FAILED, f"max_distance {max_distance!r}, reference {ref['max_distance']!r}"
        return OK, ""

    def _check_sweep(self, key, result, first):
        distances = {str(d): float(v) for d, v in result.distances.items()}
        return self._compare_result(key, result.verdict, result.max_distance, distances, first)

    def _check_conjugate(self, key, result, first):
        expected = self.expected_verdict(bsdkit.INDISTINGUISHABLE, first)
        if result.verdict != expected:
            return FAILED, f"verdict {result.verdict}, reference {expected}"
        if self.compare_values:
            d_ref = self.ref["conjugate"][key]
            if not close(result.max_distance, d_ref, DISTANCE_ATOL):
                return FAILED, f"max_distance {result.max_distance!r}, reference {d_ref!r}"
        return OK, ""

    def _read_cli(self, value):
        if value["code"] != 0:
            return None, f"exit {value['code']}: {value['stderr'].strip()}"
        with open(value["path"]) as fh:
            return json.load(fh), ""

    def _check_cli_distinguish(self, key, value, first):
        payload, msg = self._read_cli(value)
        if payload is None:
            return FAILED, msg
        return self._compare_result(key, payload["verdict"], payload["max_distance"],
                                    payload["distances"], first)

    def _check_cli_invariants(self, key, value, first):
        payload, msg = self._read_cli(value)
        if payload is None:
            return FAILED, msg
        ref = self.ref["spectra"][key]
        if set(payload["degrees"]) != set(ref):
            return FAILED, f"degrees {sorted(payload['degrees'])}, reference {sorted(ref)}"
        for d, vals in payload["degrees"].items():
            if len(vals) != len(ref[d]) or any(not close(v, r, DISTANCE_ATOL)
                                               for v, r in zip(vals, ref[d])):
                return FAILED, f"degree {d} spectrum differs from the reference"
        return OK, ""

    def _check_dangelo(self, key, value, first):
        """Known defect: the selector grammar rejects ``dangelo:2`` because
        ``distinguish`` has no ``--theta``.  Once it is accepted, the answer
        for a map against itself must be indistinguishable at distance 0."""
        if value["code"] == 2 and DANGELO_MESSAGE in value["stderr"]:
            return KNOWN, "rejected: " + DANGELO_MESSAGE
        payload, msg = self._read_cli(value)
        if payload is None:
            return FAILED, msg
        if payload["verdict"] != bsdkit.INDISTINGUISHABLE or payload["max_distance"] != 0.0:
            return FAILED, f"dangelo:2 against itself gave {payload['verdict']}"
        return OK, ""


WORKLOADS = {w.name: w for w in (VerifyAll, Pointwise, Spectra)}
