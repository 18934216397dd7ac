"""Time ``@`` against the outer-product form on every stacked product of a
``run_all`` pass, so the cutoff of ``linalg._stack_product`` can be
re-checked on another machine.

``bsdkit.verify.run_all(seed)`` is run once with ``_stack_product`` wrapped
in every ``bsdkit`` module that imports it, recording each distinct pair of
operand shapes it serves, how often, and the operands of its first call.
Then each pair is timed both ways on those operands: ``a @ b`` (one BLAS
call per matrix) and the sum of outer products over the inner index (the
kernel with its cutoff lifted), each the best of ``REPEATS`` runs of
``CALLS`` calls.  Standard library plus NumPy.

Usage: ``python tools/product_times.py [SEED] [CALLS]`` (defaults 42 and
200), with ``bsdkit`` importable (for example ``PYTHONPATH=src``).  Prints
one ``calls inner matmul_us outer_us kernel shapes`` row per shape pair in
first-call order, ``kernel`` naming the form the kernel takes (``outer`` up
to ``linalg._OUTER_MAX_INNER``, else ``@``) and a ``*`` after it where the
other form timed faster.  The last row, ``total``, gives the microseconds
per pass of those calls with ``@`` throughout, with the outer products
throughout, and with the kernel's choice.
"""

import math
import sys
import timeit

import bsdkit.linalg as linalg
import bsdkit.verify as verify

REPEATS = 7


def served(seed: int = 42) -> dict:
    """{(shape of a, shape of b): [calls, a, b]} over one ``run_all(seed)``,
    in first-call order, with the operands of the first call."""
    kernel, pairs = linalg._stack_product, {}
    modules = [m for name, m in sorted(sys.modules.items())
               if name.split(".")[0] == "bsdkit" and getattr(m, "_stack_product", None) is kernel]

    def recorded(a, b):
        pairs.setdefault((a.shape, b.shape), [0, a, b])[0] += 1
        return kernel(a, b)

    try:
        for module in modules:
            module._stack_product = recorded
        verify.run_all(seed)
    finally:
        for module in modules:
            module._stack_product = kernel
    return pairs


def best_us(call, calls: int) -> float:
    """The best of ``REPEATS`` timings of ``calls`` calls, in us per call."""
    return 1e6 * min(timeit.repeat(call, number=calls, repeat=REPEATS)) / calls


def outer_us(a, b, calls: int) -> float:
    """:func:`best_us` of the kernel with its cutoff lifted, so that every
    nonempty inner dimension is summed as outer products."""
    cutoff = linalg._OUTER_MAX_INNER
    linalg._OUTER_MAX_INNER = math.inf
    try:
        return best_us(lambda: linalg._stack_product(a, b), calls)
    finally:
        linalg._OUTER_MAX_INNER = cutoff


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    seed = int(args[0]) if args else 42
    calls = int(args[1]) if len(args) > 1 else 200
    totals = [0.0, 0.0, 0.0]
    for (sa, sb), (count, a, b) in served(seed).items():
        inner = sa[-1]
        matmul, outer = best_us(lambda: a @ b, calls), outer_us(a, b, calls)
        outer_form = 0 < inner <= linalg._OUTER_MAX_INNER
        slower = outer > matmul if outer_form else matmul > outer
        pick = ("outer" if outer_form else "@") + ("*" if slower else "")
        for k, us in enumerate((matmul, outer, outer if outer_form else matmul)):
            totals[k] += count * us
        print(f"{count:6d} {inner:3d} {matmul:10.1f} {outer:10.1f} {pick:6s} {sa} x {sb}")
    print(f"total  @ {totals[0]:.0f}  outer {totals[1]:.0f}  kernel {totals[2]:.0f} us per pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
