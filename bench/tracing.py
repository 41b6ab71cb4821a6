"""Spans around the calls into each `nhskin` layer, recorded from outside.

`Tracer` replaces every public function of the nhskin modules, in the module
that defines it and in every nhskin module that imported it by name, with a
wrapper that records a span ``(name, start, end, parent, work)``.  It does
the same for the `numpy.linalg` and `scipy.linalg` entry points,
`numpy.roots` and `scipy.optimize.minimize_scalar`.  Calls that numpy or
scipy make internally hold their own references and are not traced.
`install()` and `uninstall()` swap the wrappers in and out, so traced and
untraced passes can alternate in one process.

`layer_metrics(spans)` turns one pass of spans into the per-layer metrics;
`write_spans` stores them once the run is over.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("cli", "model", "realspace", "spectral", "topology", "localization", "nonbloch", "response", "io")
LINALG_LAYERS = ("spectral", "topology", "nonbloch", "response")

# called once per CSV cell, about 100k times per funnel job: a span per call
# would weigh more than the io work it measures
UNTRACED = {"io.fmt_float", "io.fmt_complex"}

_EIG = {"eig", "eigvals", "eigh", "eigvalsh", "eig_banded", "eigvals_banded",
        "eigh_tridiagonal", "eigvalsh_tridiagonal"}
_WRITERS = {"io.write_csv", "io.write_pgm", "io.write_svg_scatter", "io.write_svg_heatmap"}

# per-layer function metrics: (span name, "s" for inclusive or "self_s")
FUNCTION_METRICS = (
    ("spectral.eig_biorthogonal", "self_s"),
    ("spectral.dense_spectrum", "self_s"),
    ("spectral.gauge_log_scales", "s"),
    ("realspace.build", "s"),
    ("localization.classify_spectrum", "s"),
    ("model.char_poly", "s"),
    ("model.bloch_samples", "s"),
    ("nonbloch.gbz_curve", "self_s"),
    ("nonbloch.amoeba_points", "self_s"),
    ("nonbloch.has_hole", "s"),
    ("topology.winding_number", "self_s"),
    ("response.time_evolve", "s"),
    ("io.write_csv", "s"),
    ("io.write_svg_heatmap", "s"),
    ("io.write_svg_scatter", "s"),
)

COUNT_METRICS = (
    "model.char_poly.calls",
    "nonbloch.beta_roots.calls",
    "nonbloch.refinements",
    "model.bloch_samples.k_points",
    "nonbloch.companion_solves",
    "spectral.eig_n3",
    "spectral.adjoint_fallbacks",
    "realspace.dense_bytes",
    "io.bytes_written",
) + tuple(f"{layer}.calls" for layer in LAYERS)


def is_linalg(name: str) -> bool:
    return name.startswith(("numpy.linalg.", "scipy.linalg.")) or name == "numpy.roots"


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "ext"


def _eig_work(name: str, args) -> tuple:
    """(matrices solved, order n) of an eigensolver call."""
    shape = np.shape(args[0])
    if name.endswith("tridiagonal"):
        return 1, shape[0]
    if name.endswith("banded"):
        return 1, shape[-1]
    return int(np.prod(shape[:-2], dtype=np.int64)), shape[-1]


def _observer(name: str):
    """What to record as a span's `work`, from its arguments and result."""
    if name.rsplit(".", 1)[-1] in _EIG and is_linalg(name):
        return lambda args, kwargs, result: _eig_work(name, args)
    if name == "numpy.roots":
        return lambda args, kwargs, result: (1, len(result))
    if name == "model.bloch_samples":
        return lambda args, kwargs, result: result.shape[0]
    if name == "spectral.gauge_log_scales":
        return lambda args, kwargs, result: int(np.any(result))
    if name in ("realspace.build", "realspace.from_matrix"):
        return lambda args, kwargs, result: result.matrix.nbytes
    if name in _WRITERS:
        return lambda args, kwargs, result: os.path.getsize(args[0] if args else kwargs["path"])
    if name == "io.write_manifest":
        return lambda args, kwargs, result: os.path.getsize(os.path.join(args[0], "manifest.json"))
    return None


class Tracer:
    """Records spans while installed; `take()` hands them over and resets."""

    def __init__(self):
        self._spans = []
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original, wrapper)
        self._collect_targets()

    def _wrap(self, name, fn):
        spans, stack, clock = self._spans, self._stack, time.perf_counter
        observe = _observer(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if observe is not None:
                spans[idx] = (name, start, end, parent, observe(args, kwargs, result))
            return result

        return traced

    def _collect_targets(self):
        modules = {layer: importlib.import_module(f"nhskin.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNTRACED:
                    continue
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(name, fn)
        # wrap each function in every namespace that holds it by name
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj, wrappers[id(obj)]))

        import numpy.linalg
        import scipy.linalg
        import scipy.optimize

        for prefix, mod in (("numpy.linalg", numpy.linalg), ("scipy.linalg", scipy.linalg)):
            for attr in mod.__all__:
                obj = getattr(mod, attr, None)
                if callable(obj) and not isinstance(obj, type):
                    self._patches.append((mod, attr, obj, self._wrap(f"{prefix}.{attr}", obj)))
        self._patches.append((np, "roots", np.roots, self._wrap("numpy.roots", np.roots)))
        ms = scipy.optimize.minimize_scalar
        self._patches.append(
            (scipy.optimize, "minimize_scalar", ms, self._wrap("scipy.optimize.minimize_scalar", ms))
        )

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self) -> list:
        spans = list(self._spans)
        self._spans.clear()
        return spans


def write_spans(path: str, passes: list) -> None:
    """One CSV row per span: pass, index, name, start, end, parent."""
    with open(path, "w") as fh:
        fh.write("pass,index,name,start,end,parent\n")
        for p, spans in enumerate(passes):
            for i, (name, start, end, parent, _) in enumerate(spans):
                fh.write(f"{p},{i},{name},{start!r},{end!r},{parent}\n")


def layer_metrics(spans: list) -> dict:
    """Per-layer times and counts of one pass; spans are in start order."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({f"{layer}.linalg_s": 0.0 for layer in LINALG_LAYERS})
    m.update({key: 0 for key in COUNT_METRICS})
    inclusive, own = {}, {}
    gauge_calls = gauge_applied = 0
    eig_children = {}

    for i, (name, start, end, parent, work) in enumerate(spans):
        dur = end - start
        layer = layer_of(name)
        parent_name = spans[parent][0] if parent >= 0 else ""
        parent_layer = layer_of(parent_name)
        inclusive[name] = inclusive.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - child[i]
        if layer != "ext":
            m[f"{layer}.self_s"] += dur - child[i]
            m[f"{layer}.calls"] += 1
        if is_linalg(name) and parent_layer in LINALG_LAYERS:
            m[f"{parent_layer}.linalg_s"] += dur
        if isinstance(work, tuple):  # an eigensolve: (matrices, order)
            if parent_layer == "spectral":
                m["spectral.eig_n3"] += work[0] * work[1] ** 3
            elif parent_layer == "nonbloch":
                m["nonbloch.companion_solves"] += work[0]
        if name == "numpy.linalg.eig" and parent_name == "spectral.eig_biorthogonal":
            eig_children[parent] = eig_children.get(parent, 0) + 1
        if name == "model.char_poly":
            m["model.char_poly.calls"] += 1
        elif name == "nonbloch.beta_roots":
            m["nonbloch.beta_roots.calls"] += 1
        elif name == "scipy.optimize.minimize_scalar":
            m["nonbloch.refinements"] += 1
        elif name == "model.bloch_samples":
            m["model.bloch_samples.k_points"] += work
        elif name == "spectral.gauge_log_scales":
            gauge_calls += 1
            gauge_applied += work
        elif name in ("realspace.build", "realspace.from_matrix"):
            m["realspace.dense_bytes"] += work
        elif name in _WRITERS or name == "io.write_manifest":
            m["io.bytes_written"] += work

    for fn, kind in FUNCTION_METRICS:
        m[f"{fn}.{kind}"] = (inclusive if kind == "s" else own).get(fn, 0.0)
    # the adjoint path runs a second eig inside eig_biorthogonal
    m["spectral.adjoint_fallbacks"] = sum(1 for c in eig_children.values() if c > 1)
    m["spectral.gauge_applied_frac"] = gauge_applied / gauge_calls if gauge_calls else 0.0
    return m
