"""Span tracer installed around ncmart's public functions from outside.

Each traced function is replaced by a wrapper in every ``ncmart`` module
namespace that holds it (``from .spectral import lp_norm`` makes a second
binding that must be patched too), and methods are replaced on their
class.  ``numpy.linalg.eigh`` and ``numpy.linalg.svd`` are wrapped on the
``numpy.linalg`` package, which is where ncmart looks them up; numpy's own
internal calls go through its private module and are not counted.

A span is ``[function, thread, start, end, parent, outermost, child_s]``,
where ``child_s`` is the time covered by its direct child spans on the same
thread.  Spans stay in memory; :meth:`Tracer.write` dumps them and
:meth:`Tracer.metrics` aggregates calls, inclusive time and self time (span
minus child spans) per function.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time

LAYERS = {
    "algebra": ("ncmart.algebra", [
        "build_tower", "Tower.conditional_expectation", "Tower.project_difference",
        "Tower.level_basis", "Tower.difference_basis",
    ]),
    "martingale": ("ncmart.martingale", [
        "adapt", "column_square_function", "hardy_column_norm", "hardy_mixed_upper",
        "bmo_norm", "atom_constant",
    ]),
    "spectral": ("ncmart.spectral", [
        "singular_value_function", "lp_norm", "weak_norm", "lorentz_norm", "distribution",
        "operator_norm",
    ]),
    "fractional": ("ncmart.fractional", [
        "zeta_sequence", "zeta_optimize", "fractional_integral", "iterated_transform",
    ]),
    "harness": ("ncmart.harness", [
        "run_ratio_experiment", "random_martingale", "extremal_example", "centered_martingale",
    ]),
}
LAPACK = ("eigh", "svd")
BASIS_METHODS = ("Tower.level_basis", "Tower.difference_basis")


def _n3(a):
    """Matrices in a stack, and the sum of ``m * n * min(m, n)`` over them."""
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0, 0
    m, n = shape[-2], shape[-1]
    count = 1
    for s in shape[:-2]:
        count *= s
    return count, count * m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self._local = threading.local()
        self._threads = {}
        self._lock = threading.Lock()
        self._originals = []
        self._basis = {}
        self.lapack = {fn: {"matrices": 0, "n3_sum": 0} for fn in LAPACK}

    # -- recording ---------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                tid = self._threads.setdefault(threading.get_ident(), len(self._threads))
            st = self._local.st = ([], {}, tid)
        return st

    def wrap(self, name, fn, after=None):
        fid = len(self.names)
        self.names.append(name)
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, depth, tid = self._state()
            parent = stack[-1] if stack else None
            level = depth.get(fid, 0)
            rec = [fid, tid, 0.0, 0.0, parent, level == 0, 0.0]
            spans.append(rec)
            depth[fid] = level + 1
            stack.append(rec)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[fid] = level
                rec[2], rec[3] = start, end
                if parent is not None:
                    parent[6] += end - start
            if after is not None:
                after(args, out)
            return out

        return functools.update_wrapper(traced, fn)

    def _record_basis(self, args, out):
        self._basis.setdefault(id(out), out)

    def _lapack_counter(self, fn):
        acc = self.lapack[fn]

        def after(args, out):
            count, n3 = _n3(args[0] if args else None)
            with self._lock:  # worker threads call eigh concurrently
                acc["matrices"] += count
                acc["n3_sum"] += n3

        return after

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every layer function, every alias of it, and numpy.linalg."""
        import numpy.linalg

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ncmart" or n.startswith("ncmart."))]
        for layer, (modname, fns) in LAYERS.items():
            mod = sys.modules[modname]
            for fn in fns:
                name = f"{layer}.{fn}"
                after = self._record_basis if fn in BASIS_METHODS else None
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(name, orig, after))
                    self._originals.append((orig, cls, meth))
                    continue
                orig = getattr(mod, fn)
                wrapper = self.wrap(name, orig, after)
                self._originals.append((orig, None, fn))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
        for fn in LAPACK:
            orig = getattr(numpy.linalg, fn)
            setattr(numpy.linalg, fn, self.wrap(f"lapack.{fn}", orig, self._lapack_counter(fn)))
            self._originals.append((orig, numpy.linalg, fn))

    def unpatched_aliases(self):
        """Names in ncmart modules still bound to an unwrapped function."""
        originals = {id(o): name for o, _, name in self._originals}
        found = []
        for n, m in list(sys.modules.items()):
            if m is None or not (n == "ncmart" or n.startswith("ncmart.")):
                continue
            for attr, val in list(vars(m).items()):
                if id(val) in originals:
                    found.append(f"{n}.{attr}")
                if isinstance(val, type):
                    for meth, mval in vars(val).items():
                        if id(mval) in originals:
                            found.append(f"{n}.{attr}.{meth}")
        return found

    # -- output --------------------------------------------------------------

    def metrics(self):
        """Per-function ``calls``, ``s`` (outermost spans) and ``self_s``."""
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for fid, _, start, end, _, outer, child_s in self.spans:
            calls[fid] += 1
            if outer:
                incl[fid] += end - start
            self_s[fid] += end - start - child_s
        out = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.s"] = incl[fid]
            out[f"{name}.self_s"] = self_s[fid]
        for fn, acc in self.lapack.items():
            out[f"lapack.{fn}.matrices"] = acc["matrices"]
            out[f"lapack.{fn}.n3_sum"] = acc["n3_sum"]
        out["algebra.basis_mb"] = sum(a.nbytes for a in self._basis.values()) / 2**20
        return out

    def write(self, path):
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[fid, tid, start, end, -1 if parent is None else index[id(parent)], outer]
                for fid, tid, start, end, parent, outer, _ in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({
                "names": self.names,
                "fields": ["function", "thread", "start", "end", "parent", "outermost"],
                "spans": rows,
            }, fh)
