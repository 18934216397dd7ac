"""Layer tracing for the benchmark, installed from outside the program.

bsdkit modules bind their imports with ``from .x import y``, so a wrapper is
re-bound in every bsdkit namespace that holds the original function object
(for example ``verify.generic_norm``, ``cli.generic_norm`` and the
``domains.classify_point`` that ``sample_point`` calls).  Kernel calls are
wrapped at ``numpy.linalg.*`` and ``bsdkit.autgroups.expm``; ``numpy.prod``
is only counted, because ``check_factorization`` calls it about a million
times per pass.

Each wrapped call records a span (function, start, end, parent span, item
id, raised flag) in flat in-memory arrays, written out once when the run
ends.  A layer's self time is the time during which the innermost open span
belongs to that layer: the time its spans cover minus what child spans of
other layers cover, so nested same-layer spans count once.
"""

import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "domains", "autgroups", "polymaps", "invariants", "verify", "cli", "kernel")

# (layer, function) pairs wrapped in every bsdkit namespace that holds them.
PROGRAM_FUNCTIONS = (
    ("linalg", "random_unitary"),
    ("linalg", "random_orthogonal"),
    ("linalg", "psd_inv_sqrt"),
    ("linalg", "pfaffian"),
    ("domains", "sample_point"),
    ("domains", "classify_point"),
    ("domains", "generic_norm"),
    ("domains", "polarized_norm"),
    ("autgroups", "random_automorphism"),
    ("autgroups", "act"),
    ("autgroups", "automorphy_denominator"),
    ("autgroups", "iv_action_denominator"),
    ("autgroups", "random_isotropy_params"),
    ("polymaps", "eval_map"),
    ("polymaps", "conjugate"),
    ("polymaps", "homogeneous_parts"),
    ("polymaps", "polymap"),
    ("polymaps", "catalog"),
    ("invariants", "coefficient_operator"),
    ("invariants", "invariant_spectrum"),
    ("invariants", "distinguish"),
    ("verify", "run_all"),
    ("verify", "check_F_U_lemma"),
    ("verify", "check_properness"),
    ("verify", "check_coefficient_lemma"),
    ("verify", "check_composition_rule"),
    ("verify", "check_factorization"),
    ("verify", "check_isotropy_consistency"),
    ("verify", "check_family_continuity"),
    ("cli", "main"),
)

NUMPY_KERNELS = ("det", "solve", "svd", "eigvalsh", "eigh", "lstsq", "qr")

BSDKIT_MODULES = ("bsdkit", "bsdkit.linalg", "bsdkit.domains", "bsdkit.autgroups",
                  "bsdkit.polymaps", "bsdkit.invariants", "bsdkit.verify", "bsdkit.cli")


class Patch:
    """Attribute rebindings that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind_everywhere(self, original, replacement):
        """Replace ``original`` in every bsdkit namespace that holds it."""
        found = 0
        for modname in BSDKIT_MODULES:
            module = sys.modules[modname]
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)
                    found += 1
        if not found:
            raise RuntimeError(f"{original!r} is bound in no bsdkit namespace")

    def undo(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """Span recorder with online per-layer self time."""

    def __init__(self):
        self.names = []          # function id -> "layer.function"
        self.layer_of = []       # function id -> layer index (0 = outside bsdkit)
        self.fid = {}
        self.starts = array("d")
        self.ends = array("d")
        self.funcs = array("i")
        self.parents = array("i")
        self.items = array("i")
        self.raised = array("b")
        self.item = -1
        self.prod_calls = 0
        self.self_time = [0.0] * (len(LAYERS) + 1)
        self._stack = []         # open span indices
        self._stack_layer = [0]  # layer of the innermost open span, bottom = outside
        self._last = 0.0
        self._patch = None

    def _register(self, layer, name):
        key = f"{layer}.{name}"
        if key not in self.fid:
            self.fid[key] = len(self.names)
            self.names.append(key)
            self.layer_of.append(LAYERS.index(layer) + 1)
        return self.fid[key]

    def _wrap(self, fid, original):
        clock = time.perf_counter
        layer = self.layer_of[fid]
        starts, ends, funcs, parents, items, raised = (
            self.starts, self.ends, self.funcs, self.parents, self.items, self.raised)
        stack, stack_layer, self_time = self._stack, self._stack_layer, self.self_time
        tracer = self

        def traced(*args, **kwargs):
            now = clock()
            self_time[stack_layer[-1]] += now - tracer._last
            tracer._last = now
            idx = len(starts)
            starts.append(now)
            ends.append(now)
            funcs.append(fid)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            raised.append(0)
            stack.append(idx)
            stack_layer.append(layer)
            try:
                return original(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                now = clock()
                self_time[layer] += now - tracer._last
                tracer._last = now
                ends[idx] = now
                stack.pop()
                stack_layer.pop()

        traced.__wrapped__ = original
        return traced

    def install(self):
        """Wrap every traced function; undone by :meth:`uninstall`."""
        import bsdkit.autgroups  # imported from the checkout by run.py

        patch = Patch()
        for layer, name in PROGRAM_FUNCTIONS:
            original = getattr(sys.modules[f"bsdkit.{layer}"], name)
            patch.rebind_everywhere(original, self._wrap(self._register(layer, name), original))
        for name in NUMPY_KERNELS:
            original = getattr(np.linalg, name)
            patch.set(np.linalg, name, self._wrap(self._register("kernel", name), original))
        expm = bsdkit.autgroups.expm
        patch.set(bsdkit.autgroups, "expm", self._wrap(self._register("kernel", "expm"), expm))
        original_prod = np.prod
        tracer = self

        def counted_prod(*args, **kwargs):
            tracer.prod_calls += 1
            return original_prod(*args, **kwargs)

        patch.set(np, "prod", counted_prod)
        self._last = time.perf_counter()
        self._patch = patch

    def uninstall(self):
        now = time.perf_counter()
        self.self_time[self._stack_layer[-1]] += now - self._last
        self._patch.undo()
        self._patch = None

    def mark(self):
        """Snapshot of the counters, to take differences over a phase."""
        now = time.perf_counter()
        self.self_time[self._stack_layer[-1]] += now - self._last
        self._last = now
        return {"span": len(self.starts), "prod": self.prod_calls, "self": list(self.self_time)}

    def phase_stats(self, begin, end):
        """Per-function calls, inclusive seconds and per-layer self seconds
        between two :meth:`mark` snapshots."""
        lo, hi = begin["span"], end["span"]
        funcs = _copy(self.funcs, lo, hi)
        starts = _copy(self.starts, lo, hi)
        ends = _copy(self.ends, lo, hi)
        nfun = len(self.names)
        calls = np.bincount(funcs, minlength=nfun)
        incl = np.bincount(funcs, weights=ends - starts, minlength=nfun)
        parents = _copy(self.parents, lo, hi)
        all_funcs = _copy(self.funcs, 0, hi)
        parent_func = np.where(parents >= 0, all_funcs[np.maximum(parents, 0)], -1)
        return {
            "calls": {n: int(calls[k]) for k, n in enumerate(self.names)},
            "seconds": {n: float(incl[k]) for k, n in enumerate(self.names)},
            "self": {layer: end["self"][k + 1] - begin["self"][k + 1]
                     for k, layer in enumerate(LAYERS)},
            "prod_calls": end["prod"] - begin["prod"],
            "funcs": funcs,
            "parent_func": parent_func,
            "items": _copy(self.items, lo, hi),
            "raised": _copy(self.raised, lo, hi),
        }

    def save(self, path):
        """Write every recorded span as one compressed numpy archive."""
        np.savez_compressed(
            path, names=np.array(self.names), start=_copy(self.starts), end=_copy(self.ends),
            func=_copy(self.funcs), parent=_copy(self.parents), item=_copy(self.items),
            raised=_copy(self.raised))


_DTYPES = {"d": np.float64, "i": np.int32, "b": np.int8}


def _copy(arr, lo=0, hi=None):
    """Copy of ``arr[lo:hi]`` as a numpy array.  A copy, because an array
    that exports its buffer can no longer grow."""
    return np.frombuffer(arr[lo:hi], dtype=_DTYPES[arr.typecode])
