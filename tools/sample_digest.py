"""Print a SHA-256 digest of every sample each ``run_all`` report draws.

``bsdkit.verify.run_all(seed)`` is run with the three names ``verify``
draws through wrapped: ``sample_points`` (points), ``random_automorphisms``
(element stacks) and ``random_isotropy_stack`` (isotropy parameters).  Each
array they return is hashed with its dtype and shape into the digest of the
report being run.  Two trees whose lines agree draw the same samples bit for
bit; a residual compared at a tolerance cannot tell that.  Standard library
plus NumPy.

Usage: ``python tools/sample_digest.py [SEED]`` (default 42), with ``bsdkit``
importable (for example ``PYTHONPATH=src``).  Prints one ``digest report_id``
row per report in run order, then the digest of all rows as ``total``.
"""

import hashlib
import sys

import numpy as np

import bsdkit.verify as verify

DRAWS = ("sample_points", "random_automorphisms", "random_isotropy_stack")


def arrays(value):
    """The arrays of a draw's output: a point stack, an element stack's
    matrices, or an isotropy parameter array or tuple of them."""
    if isinstance(value, tuple):
        return [a for part in value for a in arrays(part)]
    return [np.asarray(getattr(value, "matrix", value))]


def digests(seed: int = 42) -> dict:
    """{report id: SHA-256 hex digest of its draws} for ``run_all(seed)``, in
    run order; a report that draws nothing gets the digest of no bytes."""
    hashes, current = {}, []
    saved = {name: getattr(verify, name) for name in DRAWS}
    checks = {name: getattr(verify, name) for name in verify.__all__ if name.startswith("check_")}

    def recorded(draw):
        def wrapper(*args, **kwargs):
            out = draw(*args, **kwargs)
            for a in arrays(out):
                current[-1].update(f"{a.dtype.str}{a.shape}".encode())
                current[-1].update(np.ascontiguousarray(a).tobytes())
            return out
        return wrapper

    def opened(check):
        def wrapper(*args, check_id, **kwargs):
            current.append(hashes.setdefault(check_id, hashlib.sha256()))
            return check(*args, check_id=check_id, **kwargs)
        return wrapper

    try:
        for name, draw in saved.items():
            setattr(verify, name, recorded(draw))
        for name, check in checks.items():
            setattr(verify, name, opened(check))
        verify.run_all(seed)
    finally:
        for name, value in {**saved, **checks}.items():
            setattr(verify, name, value)
    return {check_id: h.hexdigest() for check_id, h in hashes.items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    rows = [f"{digest} {check_id}" for check_id, digest in
            digests(int(args[0]) if args else 42).items()]
    total = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    print("\n".join([*rows, f"{total} total"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
