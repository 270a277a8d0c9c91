"""Span tracing around the public entry points of each jqsphere layer.

Nothing under src/ knows about this module.  install() replaces the
layer entry points with wrappers in the running process only: methods on
their classes, module-level functions in every jqsphere module that holds
them.  Each wrapped call opens a span (name, start, end, parent); a
span's self time is its duration minus the time its child spans and the
scalar operations directly inside it cover.

Scalar arithmetic (the sympy field element operators) runs hundreds of
thousands of times per pass, so it is not recorded one span per
operation: each operation adds a count and its duration to the innermost
open span, which keeps the span list bounded by the number of calls into
the layers above scalars.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# operator -> the per-layer counter it feeds
SCALAR_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "add",
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
}

# sub-frame slots: name id, start, time covered by children, scalar time,
# scalar op count, index of the span record
_NAME, _START, _CHILD, _SC_T, _SC_N, _REC = range(6)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.misses = []
        self.self_s = []
        # span records, one entry per closed span, in column arrays
        self.rec_name = array("i")
        self.rec_parent = array("i")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.rec_ops = array("q")
        self.rec_ops_s = array("d")
        self.op_calls = {"add": 0, "mul": 0, "div": 0}
        self.op_s = 0.0
        self.rules = 0
        self.ambiguities = 0
        self._in_scalar = False
        self._stack = []
        self.root = None

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.misses.append(0)
            self.self_s.append(0.0)
        return nid

    # -- spans ---------------------------------------------------------

    def begin_root(self):
        """Open the frame that stands for the measured pass itself."""
        self.root = [-1, perf_counter(), 0.0, 0.0, 0, -1]
        self._stack = [self.root]

    def end_root(self):
        wall = perf_counter() - self.root[_START]
        self._stack = []
        return wall

    def _open(self, nid):
        rec = len(self.rec_name)
        self.rec_name.append(nid)
        self.rec_parent.append(self._stack[-1][_REC] if self._stack else -1)
        self.rec_start.append(0.0)
        self.rec_end.append(0.0)
        self.rec_ops.append(0)
        self.rec_ops_s.append(0.0)
        frame = [nid, perf_counter(), 0.0, 0.0, 0, rec]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[_START]
        nid = frame[_NAME]
        self.calls[nid] += 1
        self.self_s[nid] += dur - frame[_CHILD] - frame[_SC_T]
        rec = frame[_REC]
        self.rec_start[rec] = frame[_START]
        self.rec_end[rec] = end
        self.rec_ops[rec] = frame[_SC_N]
        self.rec_ops_s[rec] = frame[_SC_T]
        if self._stack:
            self._stack[-1][_CHILD] += dur

    def wrap(self, name, fn, size=None):
        """Span around fn; size(first arg) measures a memo, and a call
        that grows it counts as a miss."""
        nid = self.name_id(name)

        if size is None:
            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                frame = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(frame)
        else:
            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                before = size(args[0])
                frame = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(frame)
                    if size(args[0]) > before:
                        self.misses[nid] += 1

        return spanned

    def wrap_scalar(self, kind, fn):
        @functools.wraps(fn)
        def op(*args):
            if self._in_scalar:
                return fn(*args)
            self._in_scalar = True
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                dur = perf_counter() - start
                self._in_scalar = False
                self.op_calls[kind] += 1
                self.op_s += dur
                if self._stack:
                    frame = self._stack[-1]
                    frame[_SC_T] += dur
                    frame[_SC_N] += 1

        return op

    # -- results -------------------------------------------------------

    def totals(self, name):
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0.0
        return self.calls[nid], self.misses[nid], self.self_s[nid]

    def unattributed_s(self, wall):
        """Pass wall time that no top-level span and no scalar op covers."""
        return wall - self.root[_CHILD] - self.root[_SC_T]

    def write_spans(self, path):
        """Gzipped TSV, one line per span: id, parent id, name, start and
        end in microseconds from the first span, scalar op count and time."""
        t0 = self.rec_start[0] if len(self.rec_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\tscalar_ops\tscalar_us\n")
            for i in range(len(self.rec_name)):
                out.write(
                    f"{i}\t{self.rec_parent[i]}\t{self.names[self.rec_name[i]]}\t"
                    f"{(self.rec_start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.rec_end[i] - t0) * 1e6:.1f}\t"
                    f"{self.rec_ops[i]}\t{self.rec_ops_s[i] * 1e6:.1f}\n"
                )


def _replace_function(orig, wrapped):
    """Rebind a module-level function in every jqsphere module holding it."""
    for modname, mod in list(sys.modules.items()):
        if modname == "jqsphere" or modname.startswith("jqsphere."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)


def _memo_size(attr):
    return lambda obj: len(getattr(obj, attr, ()))


def install(tracer):
    """Wrap every layer entry point; jqsphere must already be imported."""
    from jqsphere import catalog, checks, exprparse, hopf, jordanian, ncalg
    from jqsphere import pairing, rewrite, scalars

    w = tracer.wrap

    # scalars: operators aggregated per span, substitute/render as spans
    for attr, kind in SCALAR_OPS.items():
        setattr(scalars.Scalar, attr, tracer.wrap_scalar(kind, getattr(scalars.Scalar, attr)))
    _replace_function(scalars.substitute, w("scalars.substitute", scalars.substitute))
    _replace_function(scalars.render, w("scalars.render", scalars.render))

    # ncalg: one name per operation across the sparse element types
    sparse = (ncalg.FreePoly, ncalg.TensorPoly, ncalg.Tensor3Poly)
    for cls in sparse:
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            if attr in vars(cls):
                setattr(cls, attr, w("ncalg.poly_add", vars(cls)[attr]))
        if "scale" in vars(cls):
            cls.scale = w("ncalg.scale", cls.scale)
    for cls in (ncalg.FreePoly, ncalg.TensorPoly):
        setattr(cls, "__mul__", _poly_mul(tracer, vars(cls)["__mul__"], sparse))
    tensor_of = vars(ncalg.TensorPoly)["of"].__func__
    ncalg.TensorPoly.of = classmethod(w("ncalg.poly_mul", tensor_of))
    from_word = vars(ncalg.FreePoly)["from_word"].__func__
    ncalg.FreePoly.from_word = classmethod(w("ncalg.from_word", from_word))

    # rewrite
    system = rewrite.RewriteSystem
    system.nf_word = w("rewrite.nf_word", system.nf_word, size=_memo_size("_memo"))
    system.normal_form = w("rewrite.normal_form", system.normal_form)
    system.verify_certificate = w("rewrite.verify_certificate", system.verify_certificate)
    _replace_function(rewrite.interreduce, w("rewrite.interreduce", rewrite.interreduce))
    _replace_function(rewrite.complete, _complete(tracer, rewrite.complete))

    # hopf
    morph = hopf.GenMorphism
    morph.__call__ = w("hopf.apply", morph.__call__)
    morph.word_image = w("hopf.word_image", morph.word_image, size=_memo_size("_cache"))
    for name, fn in (
        ("hopf.expand", hopf.expand_left),
        ("hopf.expand", hopf.expand_right),
        ("hopf.contract", hopf.contract_left),
        ("hopf.contract", hopf.contract_right),
        ("hopf.convolve", hopf.convolve),
    ):
        _replace_function(fn, w(name, fn))

    # pairing
    dp = pairing.DualPairing
    dp.pair = w("pairing.pair", dp.pair)
    dp.pair_words = w("pairing.pair_words", dp.pair_words, size=_memo_size("_memo"))
    dp.left_action = w("pairing.action", dp.left_action)
    dp.right_action = w("pairing.action", dp.right_action)

    # catalog and parser
    _replace_function(catalog.load_catalog, w("catalog.load", catalog.load_catalog))
    _replace_function(exprparse.parse_scalar, w("exprparse.parse_scalar", exprparse.parse_scalar))

    # jordanian: derivation caches of a bound catalog
    cat = jordanian.Catalog
    cat.__init__ = w("jordanian.init", cat.__init__)
    cat.system = w("jordanian.system", cat.system, size=_memo_size("_systems"))
    cat.morphism = w("jordanian.morphism", cat.morphism, size=_memo_size("_morphisms"))
    for attr in ("relations", "hopf", "matrix", "coaction", "pairing", "element"):
        setattr(cat, attr, w(f"jordanian.{attr}", getattr(cat, attr)))

    # checks
    _replace_function(checks.run_check, w("checks.run_check", checks.run_check))


def _poly_mul(tracer, fn, sparse):
    """Span only products of two sparse elements; scalar multiples go
    through the element's own scale(), which has its own span."""
    spanned = tracer.wrap("ncalg.poly_mul", fn)

    @functools.wraps(fn)
    def mul(self, other):
        if isinstance(other, sparse):
            return spanned(self, other)
        return fn(self, other)

    return mul


def _complete(tracer, fn):
    spanned = tracer.wrap("rewrite.complete", fn)

    @functools.wraps(fn)
    def complete(*args, **kwargs):
        system = spanned(*args, **kwargs)
        tracer.rules += len(system.rules)
        tracer.ambiguities += len(system.certificate)
        return system

    return complete
