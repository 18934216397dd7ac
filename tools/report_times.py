"""Print in-process median milliseconds per ``run_all`` report, per check
family and per pass.

``bsdkit.verify.run_all(seed)`` is run once untimed, which fills the caches
that every later pass reuses, and then ``PASSES`` times with every
``check_*`` name of ``verify`` wrapped by a timer (``verify._plan`` reads the
checks from the module on each call).  A report's time is its check call; a
check family is the report id up to its first ``:`` (``fu``,
``properness``, ``coeff``, ``composition``, ``factorization``, ``isotropy``
and ``continuity``), and its time in a pass is the sum over its reports; a
pass is one ``run_all`` call.  Each row is the median over the timed passes.
With a ``PREFIX`` only the reports whose id starts with it run (for example
``properness`` for one family alone); the others are skipped inside
``run_all``, so a pass is its run memo plus those reports.  Standard library
only, besides ``bsdkit``.

Usage: ``python tools/report_times.py [SEED] [PASSES] [PREFIX]`` (defaults
42, 15 and every report), with ``bsdkit`` importable (for example
``PYTHONPATH=src``).  Prints one ``median_ms report_id`` row per report in
run order, then one ``median_ms family:<name>`` row per check family in run
order, then ``median_ms pass``.  A prefix that no report id has raises
``ValueError``.
"""

import statistics
import sys
import time

import bsdkit.verify as verify


def times(seed: int = 42, passes: int = 15, prefix: str = "") -> dict:
    """{row id: [milliseconds in each timed pass]}: every report id that
    starts with ``prefix`` in run order, then ``family:<name>`` for each
    check family among them, then ``pass``."""
    if passes < 1:
        raise ValueError(f"PASSES must be at least 1, got {passes}")
    checks = {name: getattr(verify, name) for name in verify.__all__ if name.startswith("check_")}
    current = {}

    def timed(check):
        def wrapper(*args, check_id, **kwargs):
            if not check_id.startswith(prefix):
                return None
            start = time.perf_counter()
            try:
                return check(*args, check_id=check_id, **kwargs)
            finally:
                current[check_id] = 1e3 * (time.perf_counter() - start)
        return wrapper

    rows = {}  # the first timed pass inserts its reports, then its families, then "pass"
    try:
        for name, check in checks.items():
            setattr(verify, name, timed(check))
        verify.run_all(seed)
        if not current:
            raise ValueError(f"no report id starts with {prefix!r}")
        for _ in range(passes):
            current.clear()
            start = time.perf_counter()
            verify.run_all(seed)
            total = 1e3 * (time.perf_counter() - start)
            families = {}
            for check_id, ms in current.items():
                rows.setdefault(check_id, []).append(ms)
                key = f"family:{check_id.partition(':')[0]}"
                families[key] = families.get(key, 0.0) + ms
            for key, ms in families.items():
                rows.setdefault(key, []).append(ms)
            rows.setdefault("pass", []).append(total)
    finally:
        for name, check in checks.items():
            setattr(verify, name, check)
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    seed = int(args[0]) if args else 42
    passes = int(args[1]) if len(args) > 1 else 15
    prefix = args[2] if len(args) > 2 else ""
    rows = times(seed, passes, prefix)
    print("\n".join(f"{statistics.median(ms):10.3f} {key}" for key, ms in rows.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
