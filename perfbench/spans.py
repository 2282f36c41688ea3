"""In-memory span recorder for the traced run.

`Tracer.install()` rebinds each traced function in every `sketchqr` module
that holds it (so `krylov.rh_vector` and `rhqr.rh_vector` both record), and
wraps the sketch `apply` methods and constructors at class level.
`uninstall()` puts the originals back.  The wrappers only read their
arguments and pass results through untouched.

A span is (name, start, end, parent, op, size): `parent` is the index of the
enclosing span or -1, `op` the benchmark operation being timed, and `size`
a per-call quantity (sketched columns, rounded bytes) or 0.
"""

import functools
import sys
import time

import numpy as np

FIELDS = ["name", "start", "end", "parent", "op", "size"]

# (module, attribute, span name, size of one call from its arguments)
FUNCTIONS = [
    ("sketching", "fwht", "sketching.fwht", None),
    ("rhqr", "rh_vector", "rhqr.rh_vector", None),
    ("rhqr", "apply_reflectors_compact", "rhqr.compact_apply", None),
    ("rhqr", "rhqr_left", "rhqr.sweep", None),
    ("rhqr", "rhqr_block", "rhqr.sweep", None),
    ("rhqr", "rec_rhqr", "rhqr.sweep", None),
    ("rhqr", "thin_q", "rhqr.thin_q", None),
    ("trim", "normalize_leading_columns", "trim.normalize", None),
    ("trim", "trim_rhqr_left", "trim.sweep", None),
    ("baselines", "pivoted_qr_lstsq", "baselines.pivoted_qr", None),
    ("baselines", "householder_qr", "baselines.householder_qr", None),
    ("linalg", "upper_tri_solve", "linalg.tri_solve", None),
    ("linalg", "right_tri_solve", "linalg.tri_solve", None),
    ("linalg", "cond_number", "linalg.metrics", None),
    ("linalg", "factorization_errors", "linalg.metrics", None),
    ("linalg", "orthogonality_error", "linalg.metrics", None),
    ("precision", "round_to", "precision.round_to",
     lambda a, *_, **__: np.size(a) * 8),
    ("krylov", "rhqr_arnoldi", "krylov.arnoldi", None),
    ("krylov", "rgs_arnoldi", "krylov.arnoldi", None),
    ("krylov", "hessenberg_lstsq", "krylov.hessenberg", None),
    ("experiments", "run_factor_experiment", "experiments.sweep", None),
    ("mmio", "load_matrix_market", "mmio.load", None),
]


def _apply_cols(self, X, *_, **__):
    return 1 if np.ndim(X) == 1 else np.shape(X)[1]


# (class, method, span name, size) -- wrapped on the class itself
METHODS = [
    ("SketchOperator", "apply", "sketching.apply", _apply_cols),
    ("EmbeddedSketch", "apply", "sketching.apply", _apply_cols),
    ("SRHTSketch", "__init__", "sketching.build", None),
    ("SparseSignSketch", "__init__", "sketching.build", None),
    ("GaussianSketch", "__init__", "sketching.build", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = ""
        self.casts = 0
        self.cast_bytes = 0
        self._patches = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            n = size(*args, **kwargs) if size else 0
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, n)

        return traced

    def _count_casts(self, fn):
        # linalg.to_dtype runs several times per column: count, no span
        @functools.wraps(fn)
        def counted(a, dtype):
            if np.asarray(a).dtype != dtype:
                self.casts += 1
                self.cast_bytes += np.size(a) * np.dtype(dtype).itemsize
            return fn(a, dtype)

        return counted

    def install(self):
        if self._patches:
            return
        import sketchqr

        mods = [m for k, m in sys.modules.items()
                if k == "sketchqr" or k.startswith("sketchqr.")]
        targets = []
        for mod, attr, name, size in FUNCTIONS:
            orig = getattr(getattr(sketchqr, mod), attr)
            targets.append((orig, self.wrap(name, orig, size)))
        to_dtype = sketchqr.linalg.to_dtype
        targets.append((to_dtype, self._count_casts(to_dtype)))
        for orig, repl in targets:
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, repl)
        for cls_name, meth, name, size in METHODS:
            cls = getattr(sketchqr.sketching, cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(name, orig, size))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def root(self, op, fn):
        """Call fn as the root span of benchmark operation `op`."""
        self.op = op
        try:
            return self.wrap("op", fn)()
        finally:
            self.op = ""

    def take(self):
        """Spans and cast counts recorded since the last take()."""
        out = (self.spans[:], self.casts, self.cast_bytes)
        self.spans.clear()
        self.casts = self.cast_bytes = 0
        return out


def span_table(spans):
    """Per span: (name, inclusive s, self s, parent name, op, size)."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op, n in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(name, t1 - t0, t1 - t0 - child[i],
             spans[parent][0] if parent >= 0 else "", op, n)
            for i, (name, t0, t1, parent, op, n) in enumerate(spans)]
