"""Command-line front end.

Commands: ``verify all|fu|composition|coeff|properness|factorization``,
``invariants``, ``distinguish``, ``sweep``, ``sample``, ``eval``.  Exit code
0 means every requested check passed, 1 means at least one failed, 2 means
a usage or configuration problem.  A command takes only the options it reads.
All randomness is seeded (``--seed`` of ``verify``, ``sample`` and ``eval``,
else the BSDKIT_SEED environment variable, else 42; a negative seed exits
2); with ``--no-timestamp`` a repeated invocation is byte-identical.
``main(argv)`` may be called repeatedly in one process: the argument grammar
is built once, on the first call, and every ``argv`` is parsed against it.

Maps are selected as ``name[:v1,v2,...]`` (see ``polymaps.select_map``):
``--dims`` fills a map's integer parameters in order, ``--t``/``--theta``
(where a command has them) fill the parameter of that name, and the
selector's values fill the rest in the order of the catalog builder's
signature.  ``dangelo:3,0.5`` is the D'Angelo map with n = 3 and
theta = 0.5, the same map as ``dangelo:3 --theta 0.5``.
"""

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import verify
from .autgroups import aut_from_json, aut_to_json, act, check_membership
from .domains import classify_point, generic_norm, parse_spec, sample_point
from .errors import BsdkitError, ParameterError
from .invariants import distinguish, invariant_spectrum
from .polymaps import (catalog, eval_map, polymap_from_json, polymap_to_json, select_map,
                       source_positions)
from .verify import run_all, summarize

USAGE_EXIT = 2
FAIL_EXIT = 1
# The most points a --grid may have (0:1:0.001); a sweep compares every pair.
MAX_GRID_POINTS = 1001


def _seed(args) -> int:
    """``--seed`` if given, else the BSDKIT_SEED environment variable, else 42;
    a negative seed is a usage error."""
    text = os.environ.get("BSDKIT_SEED", "42")
    try:
        seed = args.seed if args.seed is not None else int(text)
    except ValueError:
        raise ParameterError(f"BSDKIT_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        name = "--seed" if args.seed is not None else "BSDKIT_SEED"
        raise ParameterError(f"{name} must be nonnegative, got {seed}")
    return seed


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call;
    parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(prog="bsdkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--no-timestamp", action="store_true")

    def map_options(p, *file_flags):
        """The map selection options; ``file_flags`` go after ``--map-file``."""
        for flag in ("--map-a", "--map-file", *file_flags):
            p.add_argument(flag, type=str, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--dims", type=str, default=None)

    p = sub.add_parser("verify", help="run verification checks")
    p.add_argument("what", choices=("all", "fu", "composition", "coeff", "properness", "factorization"))
    p.add_argument("--domain", type=str, default=None)
    map_options(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--samples", type=int, default=None,
                   help="sample count of the check; for factorization, the rank-1 lattice size")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)

    p = sub.add_parser("invariants", help="per-degree singular spectra of a map")
    map_options(p)
    common(p)

    p = sub.add_parser("distinguish", help="compare the invariant spectra of two maps")
    p.add_argument("--map-a", type=str, required=True)
    p.add_argument("--map-b", type=str, required=True)
    p.add_argument("--dims", type=str, default=None)
    p.add_argument("--tol", type=float, default=None)
    common(p)

    p = sub.add_parser("sweep", help="pairwise spectral distance matrix over a parameter grid")
    p.add_argument("--family", choices=verify._FAMILIES, required=True)
    p.add_argument("--grid", type=str, required=True, help="lo:hi:step")
    p.add_argument("--dims", type=str, default=None)
    common(p)

    p = sub.add_parser("sample", help="sample a domain point")
    p.add_argument("--domain", type=str, required=True)
    p.add_argument("--region", choices=("interior", "boundary"), default="interior")
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("eval", help="evaluate a map at a sampled point, or act an element on it")
    map_options(p, "--aut-file")
    p.add_argument("--seed", type=int, default=None)
    common(p)
    return parser


def _parse_dims(text):
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParameterError(f"malformed --dims {text!r}") from None


def _load_json(path):
    """The JSON document in a file; a file that is not JSON is a usage error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParameterError(f"{path} is not a JSON file: {exc}") from None


def _resolve_map(args, selector):
    """The map of ``--map-file`` if given, else ``polymaps.select_map`` of the
    selector with the command's ``--dims``, ``--t`` and ``--theta``."""
    opts = vars(args)
    if opts.get("map_file"):
        return polymap_from_json(_load_json(opts["map_file"]))
    if selector is None:
        raise ParameterError("a map selector (--map-a/--map-b) or --map-file is required")
    return select_map(selector, _parse_dims(args.dims), t=opts.get("t"), theta=opts.get("theta"))


def _matrix_json(m: np.ndarray):
    return [[float(v.real), float(v.imag)] for v in np.asarray(m).ravel()]


def _emit(payload: dict, args) -> None:
    if not args.no_timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write(text, args.out)


def _write(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reports_payload(reports) -> dict:
    return {"reports": [r.to_dict() for r in reports], "summary": summarize(reports)}


def _reports_csv(reports) -> str:
    lines = ["check_id,specs,samples,seed,max_residual,tolerance,pass"]
    for r in reports:
        d = r.to_dict()
        lines.append(",".join([
            d["check_id"], ";".join(d["specs"]), str(d["samples"]), str(d["seed"]),
            f"{d['max_residual']:.17g}", f"{d['tolerance']:.17g}", str(d["pass"]).lower(),
        ]))
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    seed = _seed(args)

    def given(samples: str) -> dict:
        """The seed, plus ``--tol`` and ``--samples`` (as keyword ``samples``) where
        given: each check default lives once, in the signature in ``verify``."""
        if args.samples is not None and args.samples <= 0:
            raise ParameterError(f"--samples must be positive, got {args.samples}")
        if args.tol is not None and not (np.isfinite(args.tol) and args.tol >= 0):
            raise ParameterError(f"--tol must be nonnegative and finite, got {args.tol}")
        flags = (("tol", args.tol), (samples, args.samples))
        return {"seed": seed, **{k: v for k, v in flags if v is not None}}

    reports = []
    if args.what == "all":
        reports = run_all(seed=seed)
    elif args.what == "fu":
        specs = [args.domain] if args.domain else ["I:2,2", "I:2,3", "II:3", "III:2", "IV:3"]
        reports = [verify.check_F_U_lemma(parse_spec(text), **given("n_samples")) for text in specs]
    elif args.what == "composition":
        reports.append(verify.check_composition_rule(
            catalog("standard", r=1, s=3, r2=1, s2=5), catalog("whitney-ball", n=2),
            **given("n_samples")))
    elif args.what == "coeff":
        spec = parse_spec(args.domain or "I:2,2")
        reports = [verify.check_coefficient_lemma(spec, i, j, **given("n_bases"))
                   for i, j in source_positions(spec)]
    elif args.what == "properness":
        f = _resolve_map(args, args.map_a)
        reports.append(verify.check_properness(f, **given("n_samples")))
    elif args.what == "factorization":
        f = _resolve_map(args, args.map_a)
        reports.append(verify.check_factorization(f, **given("grid_size"))[0])
    if args.format == "csv":
        _write(_reports_csv(reports), args.out)
    else:
        _emit(_reports_payload(reports), args)
    return 0 if all(r.passed for r in reports) else FAIL_EXIT


def _cmd_invariants(args) -> int:
    f = _resolve_map(args, args.map_a)
    degrees = {str(d): [float(v) for v in vals] for d, vals in invariant_spectrum(f).items()}
    _emit({"degrees": degrees, "source": str(f.source), "target": str(f.target)}, args)
    return 0


def _cmd_distinguish(args) -> int:
    fa = _resolve_map(args, args.map_a)
    fb = _resolve_map(args, args.map_b)
    result = distinguish(fa, fb, **({} if args.tol is None else {"tol": args.tol}))
    _emit({
        "verdict": result.verdict,
        "max_distance": result.max_distance,
        "distances": {str(d): float(v) for d, v in result.distances.items()},
    }, args)
    return 0


def _parse_grid(text: str):
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ParameterError(f"malformed --grid {text!r}, want lo:hi:step") from None
    if not np.isfinite((lo, hi, step)).all():
        raise ParameterError(f"non-finite --grid {text!r}")
    if step <= 0 or hi < lo:
        raise ParameterError(f"bad grid range {text!r}")
    if (hi - lo) / step >= MAX_GRID_POINTS:  # also a span that overflows to inf
        raise ParameterError(f"--grid {text!r} has more than {MAX_GRID_POINTS} points")
    count = int(round((hi - lo) / step))
    grid = [lo + k * step for k in range(count + 1)]
    return [t for t in grid if t <= hi + 1e-12]


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    if any(t < 0.0 or t > 1.0 for t in grid):
        raise ParameterError("sweep grid must lie in [0, 1]")
    dims = _parse_dims(args.dims)
    maps = [select_map(args.family, dims=dims, t=t) for t in grid]
    n = len(grid)
    matrix = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            d = distinguish(maps[a], maps[b]).max_distance
            matrix[a, b] = matrix[b, a] = d
    header = "t," + ",".join(f"{t:.17g}" for t in grid)
    lines = [header]
    for a in range(n):
        lines.append(f"{grid[a]:.17g}," + ",".join(f"{matrix[a, b]:.17g}" for b in range(n)))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sample(args) -> int:
    spec = parse_spec(args.domain)
    p = sample_point(spec, args.region, _seed(args))
    cls = classify_point(p)
    _emit({
        "spec": str(spec),
        "region": cls.region,
        "margin": cls.margin,
        "generic_norm": generic_norm(p),
        "value": _matrix_json(p.value),
    }, args)
    return 0


def _cmd_eval(args) -> int:
    seed = _seed(args)
    payload = {}
    if args.aut_file:
        element = aut_from_json(_load_json(args.aut_file))
        p = sample_point(element.spec, "interior", seed)
        membership = check_membership(element)
        image = act(element, p)
        payload.update({
            "element": aut_to_json(element),
            "membership_residual": membership.max_residual,
            "membership_pass": membership.passed,
            "point": _matrix_json(p.value),
            "image": _matrix_json(image.value),
        })
    else:
        f = _resolve_map(args, args.map_a)
        p = sample_point(f.source, "interior", seed)
        image = eval_map(f, p)
        payload.update({
            "map": polymap_to_json(f),
            "point": _matrix_json(p.value),
            "image": _matrix_json(image.value),
            "image_classification": classify_point(image).region,
        })
    _emit(payload, args)
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "invariants": _cmd_invariants,
    "distinguish": _cmd_distinguish,
    "sweep": _cmd_sweep,
    "sample": _cmd_sample,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (BsdkitError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
