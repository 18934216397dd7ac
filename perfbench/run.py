"""bsdkit benchmark: run one workload and print its metrics.

Run from the root of a bsdkit checkout; the program is imported from its
``src/`` directory and nothing is installed:

    python3 perfbench/run.py --workload verify-all --seed 42 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``verify-all``, ``pointwise``, ``spectra``.
Each runs in this one process, which starts no threads or processes of its
own apart from the sequential set-up probes described below.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  Every
pass time and item latency is taken with ``stateclock.StateClock``, which
rescales wall time to the machine's fast state: on a shared 2-vCPU machine
one process runs in a fast or a 1.5x to 2.5x slower state for seconds at a
time, so raw pass times of the same work differ by half from run to run.
The raw walls are printed beside the rescaled ones.

* ``setup_s``: fresh process to inputs ready (interpreter start, ``import
  bsdkit``, input generation), timed from outside in SETUP_PROBES probe
  processes run one after another; the median.  Each probe runs a state
  clock of its own from just after ``import numpy`` and reports that part
  rescaled; the interpreter's start and ``import numpy`` stay raw.
* ``first_pass_s``: the first pass after set-up in this process.
* ``wall_s``: the median warm pass.  Warm passes run until ``--seconds``
  have passed since the first pass began and three warm passes are done,
  within a cap of four times ``--seconds`` once one warm pass is done.
* ``item_ms_p50``: median item latency, pooled over the warm passes.
* ``item_ms_tail``: the pooled item latency at the highest percentile that
  leaves at least 10 items of one pass beyond it (p88 of 88 reports for
  verify-all, p99 of 1221 queries for spectra, p73 of 38 checks for
  pointwise); the quantile and the item count are printed beside it.
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

The error rate (failed items over attempted) is printed on its own line and
carried by the ``attempted`` and ``failed`` fields of the result.

``--trace 1`` runs one untraced pass, then pairs of passes, one untraced and
one with the layer wrappers of ``tracing.py`` installed, for ``--seconds``.
It reports the per-layer metrics of one traced pass (counts from the first
traced pass, which every later traced pass must repeat exactly; timings as
medians over traced passes, in raw wall seconds) and ``trace.overhead_s``,
the median rescaled traced pass less the median rescaled untraced one.  It
writes every span to ``.perfbench_run/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
MIN_WARM_PASSES = 3
USAGE_EXIT = 2


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(USAGE_EXIT)


def import_program(root):
    """Import bsdkit from ``<root>/src``, and only from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bsdkit", "__init__.py")):
        fail(f"no src/bsdkit under {root}; run from the root of a bsdkit checkout")
    sys.path.insert(0, src)
    import bsdkit

    if not os.path.abspath(bsdkit.__file__).startswith(src + os.sep):
        fail(f"imported bsdkit from {bsdkit.__file__}, not from {src}")
    return bsdkit


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify-all", "pointwise", "spectra"))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a few samples per item, for the self-test")
    p.add_argument("--perturb", action="store_true",
                   help="self-test: flip the first item's reference verdict")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def make_workload(args, root, with_reference=True):
    import workloads

    return workloads.WORKLOADS[args.workload](
        args.seed, args.scale, load_reference() if with_reference else None, args.perturb,
        os.path.join(root, ".perfbench_run"))


def setup_probe(args, root):
    """Child side of a set-up probe: import, generate inputs, then report
    the raw and the rescaled seconds of that work (the interpreter's start
    and ``import numpy`` before it stay raw)."""
    import stateclock

    clock = stateclock.StateClock()
    clock.start()
    start = time.perf_counter()
    try:
        import_program(root)
        make_workload(args, root, with_reference=False).setup()
        end = time.perf_counter()
    finally:
        clock.stop()
    sys.stdout.write(f"ready {end - start!r} {float(clock.seconds(start, end))!r}\n")
    sys.stdout.flush()


def run_probes(args, root):
    """Seconds from start to inputs ready of each set-up probe, raw and with
    the probe's own work rescaled."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    raw, setups = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        words = line.split()
        if code != 0 or len(words) != 3 or words[0] != b"ready":
            fail(f"set-up probe exited {code} without reporting ready")
        raw.append(elapsed)
        setups.append(elapsed - float(words[1]) + float(words[2]))
    return raw, setups


class Tally:
    """Item outcomes over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.known = {}

    def add(self, statuses):
        import workloads

        for item_id, status, msg in statuses:
            self.attempted += 1
            if status == workloads.FAILED:
                self.failed.append((item_id, msg))
            elif status == workloads.KNOWN:
                self.known[item_id] = msg


def run_one_pass(wl, tally, tracer=None):
    """One pass plus its gate; returns the pass's (start, end) wall times, the
    items' (start, end) wall times and the output, or None, None, None if the
    pass raised."""
    try:
        span, output = wl.run_pass(tracer)
    except Exception as exc:  # the whole pass failed: every item fails
        tally.failed.append((wl.name, f"pass raised {exc!r}"))
        tally.attempted += 1
        return None, None, None
    statuses, spans = wl.gate(output)
    tally.add(statuses)
    return span, spans, output


def measuring(elapsed, last_pass, warm, min_warm, seconds):
    """Whether to run another warm pass: until ``seconds`` have passed and
    ``min_warm`` warm passes are done; but once one warm pass is done, never
    one that would, at the last pass's pace, end more than ``4 * seconds``
    after the first pass began, which bounds a run on a slowed machine."""
    if elapsed < seconds:
        return True
    return warm < min_warm and elapsed + last_pass <= 4 * seconds


def nearest_rank(sorted_values, q):
    """Value at quantile q (nearest rank) and the number of values beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def median_or_nan(values):
    return statistics.median(values) if len(values) else math.nan


def rescaled(clock, spans):
    """Fast-state seconds of each (start, end) wall-time pair in ``spans``.
    A pass that raised (None) is already a failed item and has no time."""
    spans = np.array([s for s in spans if s is not None]).reshape(-1, 2)
    return clock.seconds(spans[:, 0], spans[:, 1])


def end_to_end(args, root):
    import stateclock

    tally = Tally()
    wl = make_workload(args, root)
    raw_probes, probes = run_probes(args, root)
    wl.setup()
    clock = stateclock.StateClock()
    clock.start()
    try:
        start = time.perf_counter()
        first, _, _ = run_one_pass(wl, tally)
        warm, item_spans, last = [], [], math.inf
        min_warm = MIN_WARM_PASSES if args.scale == "full" else 1
        while not warm or measuring(time.perf_counter() - start, last, len(warm), min_warm,
                                    args.seconds):
            span, spans, _ = run_one_pass(wl, tally)
            warm.append(span)
            if span is not None:
                last = span[1] - span[0]
            if spans is not None:
                item_spans.extend(spans)
    finally:
        clock.stop()
    walls = rescaled(clock, warm)
    items = np.sort(rescaled(clock, item_spans))
    tail, beyond = nearest_rank(items, wl.tail_quantile) if len(items) else (math.nan, 0)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "first_pass_s": (clock.seconds(*first) if first is not None else math.nan, "s"),
        "wall_s": (median_or_nan(walls), "s"),
        "item_ms_p50": (1e3 * median_or_nan(items), "ms"),
        "item_ms_tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = [end - start for start, end in filter(None, [first] + warm)]
    notes = [
        f"setup probes (s): {' '.join(f'{t:.4f}' for t in probes)}; raw "
        f"{' '.join(f'{t:.4f}' for t in raw_probes)} (median {statistics.median(raw_probes):.4f})",
        f"passes: 1 first + {len(warm)} warm; warm walls (s): "
        f"{' '.join(f'{w:.3f}' for w in walls)}",
        f"raw walls (s), first pass first: {' '.join(f'{w:.3f}' for w in raw)}",
        f"state clock: {len(clock.times)} kernel samples, median "
        f"{1e6 * np.median(clock.raw_kernel_s):.1f} us (reference "
        f"{1e6 * stateclock.KERNEL_REFERENCE_S:g} us)",
        f"item_ms_tail is p{100 * wl.tail_quantile:g} of {len(items)} items pooled over "
        f"the warm passes, {beyond} beyond it",
    ]
    return tally, metrics, notes


def end_to_end_trace(args, root):
    import stateclock
    import tracing

    wl = make_workload(args, root)
    tracer = tracing.Tracer()
    tracer.install()
    m0 = tracer.mark()
    wl.setup()
    m1 = tracer.mark()
    tracer.uninstall()
    setup_stats = tracer.phase_stats(m0, m1)

    tally = Tally()
    untraced, traced, marks, outputs = [], [], [], []
    clock = stateclock.StateClock()
    clock.start()
    try:
        start = time.perf_counter()
        run_one_pass(wl, tally)
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(run_one_pass(wl, tally)[0])
            tracer.install()
            begin = tracer.mark()
            span, _, output = run_one_pass(wl, tally, tracer)
            marks.append((begin, tracer.mark()))
            tracer.uninstall()
            traced.append(span)
            outputs.append(output)
    finally:
        clock.stop()

    passes = [layer_metrics(wl, tracer.phase_stats(b, e), out) for (b, e), out in zip(marks, outputs)]
    metrics = {}
    for name, (value, unit) in passes[0].items():
        if unit in ("count", "ratio"):
            repeats = {p[name][0] for p in passes}
            if len(repeats) != 1:
                tally.failed.append((name, f"count differs between traced passes: {sorted(repeats)}"))
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(p[name][0] for p in passes), unit)
    metrics["polymaps.catalog.setup_calls"] = (setup_stats["calls"]["polymaps.catalog"], "count")
    metrics["autgroups.random_isotropy_params.setup_calls"] = (
        setup_stats["calls"]["autgroups.random_isotropy_params"], "count")
    walls = {"untraced": rescaled(clock, untraced), "traced": rescaled(clock, traced)}
    metrics["trace.overhead_s"] = (
        median_or_nan(walls["traced"]) - median_or_nan(walls["untraced"]), "s")

    os.makedirs(os.path.join(root, ".perfbench_run"), exist_ok=True)
    tracer.save(os.path.join(root, ".perfbench_run", f"trace-{args.workload}.npz"))
    notes = [
        f"untraced walls (s): {' '.join(f'{w:.3f}' for w in walls['untraced'])}",
        f"traced walls (s): {' '.join(f'{w:.3f}' for w in walls['traced'])}",
        f"spans recorded: {len(tracer.starts)}",
    ]
    return tally, metrics, notes


def layer_metrics(wl, stats, output):
    """Per-layer metrics of one traced pass."""
    import tracing
    import workloads

    calls, secs = stats["calls"], stats["seconds"]
    out = {}
    per_call = {
        "polymaps": ("eval_map", "conjugate", "homogeneous_parts", "polymap", "catalog"),
        "domains": ("sample_point", "classify_point", "generic_norm", "polarized_norm"),
        "autgroups": ("random_automorphism", "act", "automorphy_denominator",
                      "iv_action_denominator", "random_isotropy_params"),
        "invariants": ("coefficient_operator", "invariant_spectrum", "distinguish"),
        "cli": ("main",),
    }
    for layer, names in per_call.items():
        for name in names:
            key = f"{layer}.{name}"
            n = calls[key]
            out[f"{key}.calls"] = (n, "count")
            out[f"{key}.us_per_call"] = (1e6 * secs[key] / n if n else 0.0, "us")
    for name in ("random_unitary", "random_orthogonal", "psd_inv_sqrt", "pfaffian"):
        out[f"linalg.{name}.calls"] = (calls[f"linalg.{name}"], "count")
    for name in tracing.NUMPY_KERNELS + ("expm",):
        out[f"kernel.{name}.calls"] = (calls[f"kernel.{name}"], "count")
        out[f"kernel.{name}.s"] = (secs[f"kernel.{name}"], "s")
    out["kernel.prod.calls"] = (stats["prod_calls"], "count")
    for check, family in workloads.CHECK_FAMILIES.items():
        out[f"verify.{family}.s"] = (secs[f"verify.{check}"], "s")
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (stats["self"][layer], "s")

    fid = {name: k for k, name in enumerate(calls)}
    funcs, parent_func, items = stats["funcs"], stats["parent_func"], stats["items"]
    sample = funcs == fid["domains.sample_point"]
    accepted = int(np.count_nonzero(sample & (stats["raised"] == 0)))
    candidates = int(np.count_nonzero((funcs == fid["domains.classify_point"])
                                      & (parent_func == fid["domains.sample_point"])))
    out["domains.sample_point.accept_ratio"] = (accepted / candidates if candidates else 0.0,
                                                "ratio")
    counters = wl.counters(output) if output is not None else {"pair_items": [], "pairs_used": 0,
                                                               "cli_rejected": 0}
    drawn = int(np.count_nonzero(sample & np.isin(items, counters["pair_items"]))) // 2
    out["verify.pair_accept_ratio"] = (counters["pairs_used"] / drawn if drawn else 0.0, "ratio")
    out["cli.main.rejected_calls"] = (counters["cli_rejected"], "count")
    return out


def environment():
    """Interpreter, numpy, scipy and the OpenBLAS thread count in effect."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if libs:
        try:
            get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            get.restype = ctypes.c_int
            threads = str(get())
        except (OSError, AttributeError):
            pass
    return (f"python {platform.python_version()} numpy {numpy.__version__} "
            f"scipy {scipy.__version__} blas_threads {threads} nproc {os.cpu_count()}")


def report(args, tally, metrics, notes):
    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} scale {args.scale}")
    print(f"  {environment()}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}" if math.isfinite(value)
              else f"  {name:48s} n/a {unit}")
    n_failed = len(tally.failed)
    print(f"  {'error_rate':48s} {n_failed / max(1, tally.attempted):.6g} ratio "
          f"({n_failed} of {tally.attempted} items failed)")
    if tally.known:
        print("  known defects reproduced: " + "; ".join(
            f"{k} ({v})" for k, v in sorted(tally.known.items())))
    for item_id, msg in tally.failed[:20]:
        sys.stderr.write(f"perfbench: FAILED {item_id}: {msg}\n")
    result = {
        "correct": n_failed == 0,
        "attempted": tally.attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if args.setup_probe:
        setup_probe(args, root)
        return 0
    import_program(root)
    if args.trace:
        tally, metrics, notes = end_to_end_trace(args, root)
    else:
        tally, metrics, notes = end_to_end(args, root)
    report(args, tally, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
