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
Standard library only, besides ``bsdkit``.

Usage: ``python tools/report_times.py [SEED] [PASSES]`` (defaults 42 and 15),
with ``bsdkit`` importable (for example ``PYTHONPATH=src``).  Prints one
``median_ms report_id`` row per report in run order, then one ``median_ms
family:<name>`` row per check family in run order, then ``median_ms pass``.
"""

import statistics
import sys
import time

import bsdkit.verify as verify


def times(seed: int = 42, passes: int = 15) -> dict:
    """{row id: [milliseconds in each timed pass]}: every report id in run
    order, then ``family:<name>`` for each check family, then ``pass``."""
    if passes < 1:
        raise ValueError(f"PASSES must be at least 1, got {passes}")
    checks = {name: getattr(verify, name) for name in verify.__all__ if name.startswith("check_")}
    current = {}

    def timed(check):
        def wrapper(*args, check_id, **kwargs):
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
    print("\n".join(f"{statistics.median(ms):10.3f} {key}" for key, ms in times(seed, passes).items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
