"""Per-layer tracing from outside the library.

``Tracer.install`` wraps every public function of each library module (and
the public methods and ``__post_init__`` of its classes), rebinding the name
in every ``jacobiweil`` module that imported it: ``theta_M``, for one, is
bound in ``theta``, ``cli``, ``suites`` and the package namespace.
Each call records a span (id, parent, function, start, end, raised) in
memory; a layer's self time is the time of its spans minus the time their
child spans cover.  ``uninstall`` restores the original objects.

Two waste ratios are computed from the recorded inputs, not from counters in
the library:

* ``theta.useful_term_ratio``: for each ``lattice_sum`` call the term
  magnitudes are recomputed over the returned box; the smallest sup-norm
  radius whose omitted mass (terms outside it plus the certified tail) is at
  most tol gives the useful points, divided by the points summed.
* ``weil.rotation_useful_ratio``: ``len(rotation_word(theta, n))`` divided by
  the generator applications seen inside each ``sw_rotation_apply`` span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("theta", "groups", "linalg", "maslov", "states", "weil", "automorphy",
          "jacobi_theta", "maass", "fock", "serialize", "cli", "suites")

# per-layer call counters: metric name -> traced function
COUNTERS = {
    "groups.symplectic_calls": "groups.SymplecticElement.__post_init__",
    "groups.symplectic_form_calls": "groups.symplectic_form",
    "linalg.real_sym_calls": "linalg.real_sym",
    "linalg.pd_checks": "linalg.is_positive_definite",
    "linalg.signature_calls": "linalg.signature",
    "maslov.maslov3_calls": "maslov.maslov3",
    "maslov.lagrangian_calls": "maslov.Lagrangian.__post_init__",
    "states.gaussian_calls": "states.GaussianState.__post_init__",
    "states.evaluate_calls": "states.evaluate",
    "weil.generator_calls": "weil.weil_generator_apply",
    "weil.rotation_calls": "weil.sw_rotation_apply",
    "automorphy.jstar_calls": "automorphy.J_star_M",
    "automorphy.multiplier_calls": "automorphy.theta_multiplier",
}
LATTICE_SUM = "theta.lattice_sum"
ROTATION = "weil.sw_rotation_apply"
GENERATOR = "weil.weil_generator_apply"
RUN_SUITE = "suites.run_suite"
SAMPLE_FUNCTION = "maass.sample_function"
OBSERVED = (LATTICE_SUM, ROTATION, RUN_SUITE)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    names = []
    for layer in LAYERS:
        names.append(f"{layer}.self_s")
        names += [k for k in COUNTERS if k.startswith(layer + ".")]
        names += {"theta": ["theta.calls", "theta.terms_summed", "theta.terms_per_s",
                            "theta.radius_max", "theta.useful_term_ratio"],
                  "weil": ["weil.rotation_useful_ratio"],
                  "jacobi_theta": ["jacobi_theta.calls"], "maass": ["maass.func_evals"],
                  "fock": ["fock.calls"], "suites": ["suites.cases"]}.get(layer, [])
        names.append(f"{layer}.errors")
    names += ["trace.overhead_frac", "trace.op_s"]
    return {name: _unit(name) for name in names}


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "_frac")):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.qualname"
        self.layer_of: list[str] = []
        self.spans: list[tuple] = []        # (id, parent, function id, t0, t1, raised)
        self.observed: list[tuple] = []     # (function id, span id, args, kwargs, result)
        self.observe = True
        self.func_evals = 0
        self.originals: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._main_stack = [0]
        self._local = threading.local()
        self._main = threading.main_thread()
        self._bindings: list[tuple] | None = None

    # --- wrapping -------------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a worker thread's spans hang under the span that started the pool
            stack = self._local.stack = [self._main_stack[-1]]
        return stack

    def _wrap(self, fn, name: str, layer: str):
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.originals[name] = fn
        spans, ids, clock, stack_of = self.spans, self._ids, time.perf_counter, self._stack
        keep = name in OBSERVED
        counts_evals = name == SAMPLE_FUNCTION

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            stack = stack_of()
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, fid, t0, clock(), 1))
                stack.pop()
                raise
            spans.append((sid, parent, fid, t0, clock(), 0))
            stack.pop()
            if keep and self.observe:
                self.observed.append((fid, sid, args, kwargs, result))
            if counts_evals:
                result = self._count_evals(result)
            return result

        return traced

    def _count_evals(self, func):
        def counted(*args):
            self.func_evals += 1
            return func(*args)
        return counted

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        mods = [m for k, m in list(sys.modules.items())
                if k == "jacobiweil" or k.startswith("jacobiweil.")]
        plan = []
        for layer in LAYERS:
            mod = importlib.import_module(f"jacobiweil.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{layer}.{name}", layer)
                    for importer in mods:
                        for attr, val in vars(importer).items():
                            if val is obj:
                                plan.append((importer, attr, obj, wrapped))
                            elif isinstance(val, dict):
                                # registries such as suites.SUITES hold the function
                                plan += [(val, key, obj, wrapped)
                                         for key, v in val.items() if v is obj]
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (attr in ("__post_init__", "__matmul__")
                                                       or not attr.startswith("_")):
                            plan.append((obj, attr, fn,
                                         self._wrap(fn, f"{layer}.{name}.{attr}", layer)))
        return plan

    def install(self) -> None:
        """Rebind every public function of every layer module to its wrapper."""
        if self._bindings is None:
            self._bindings = self._plan()
        for owner, attr, _, wrapped in self._bindings:
            _bind(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings or []):
            _bind(owner, attr, original)

    # --- analysis -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1, _ in self.spans:
            if parent:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, _, t0, t1, _ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per traced pass."""
        fid_of = {name: i for i, name in enumerate(self.names)}
        selfs = self.self_times()
        layer_self = Counter()
        layer_calls = Counter()
        errors = Counter()
        fcalls = Counter()
        parent_of = {sid: (parent, fid) for sid, parent, fid, _, _, _ in self.spans}
        for sid, parent, fid, _, _, raised in self.spans:
            layer = self.layer_of[fid]
            layer_self[layer] += selfs[sid]
            layer_calls[layer] += 1
            fcalls[fid] += 1
            # an exception counts once, where it leaves the layer
            if raised and (parent not in parent_of
                           or self.layer_of[parent_of[parent][1]] != layer):
                errors[layer] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / passes
            out[f"{layer}.errors"] = errors[layer] / passes
        for metric, name in COUNTERS.items():
            out[metric] = fcalls[fid_of[name]] / passes
        out["jacobi_theta.calls"] = layer_calls["jacobi_theta"] / passes
        out["fock.calls"] = layer_calls["fock"] / passes
        out["maass.func_evals"] = self.func_evals / passes
        out["theta.calls"] = fcalls[fid_of[LATTICE_SUM]] / passes
        out.update(self._theta_metrics(fid_of[LATTICE_SUM], passes))
        out["weil.rotation_useful_ratio"] = self._rotation_ratio(
            fid_of[ROTATION], fid_of[GENERATOR], parent_of)
        out["suites.cases"] = sum(
            int(args[2] if len(args) > 2 else kwargs["count"])
            for fid, _, args, kwargs, _ in self.observed if fid == fid_of[RUN_SUITE])
        return out

    def _theta_metrics(self, fid: int, passes: int) -> dict[str, float]:
        terms = useful = 0
        radius_max = 0
        for ofid, _, args, kwargs, result in self.observed:
            if ofid != fid or result.truncation.radius == 0:
                continue
            state, m_index = args[0], args[1]
            tol = args[2] if len(args) > 2 else kwargs["tol"]
            summed, needed = useful_points(state, m_index, tol, result.truncation)
            terms += summed
            useful += needed
            radius_max = max(radius_max, result.truncation.radius)
        busy = sum(t1 - t0 for _, _, f, t0, t1, _ in self.spans if f == fid)
        # observations cover the first traced pass only
        return {"theta.terms_summed": terms, "theta.radius_max": radius_max,
                "theta.terms_per_s": terms * passes / busy if busy else 0.0,
                "theta.useful_term_ratio": useful / terms if terms else 0.0}

    def _rotation_ratio(self, rot_fid: int, gen_fid: int, parent_of: dict) -> float:
        rotation_word = self.originals["weil.rotation_word"]
        word_len = {}
        for fid, sid, args, kwargs, _ in self.observed:
            if fid == rot_fid:
                theta, f = args[1], args[2]
                word_len[sid] = len(rotation_word(theta, f.shape[1]))
        applied = Counter()
        for sid, (parent, fid) in parent_of.items():
            if fid != gen_fid:
                continue
            while parent and parent not in word_len:
                parent = parent_of.get(parent, (0, 0))[0]
            if parent:
                applied[parent] += 1
        total = sum(applied.values())
        return sum(word_len[s] for s in applied) / total if total else 0.0

    def write(self, path, header: dict) -> None:
        """Write the spans as gzipped JSON lines: a header, then one span a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(dict(header, functions=self.names)) + "\n")
            for sid, parent, fid, t0, t1, raised in self.spans:
                fh.write(f"[{sid},{parent},{fid},{t0 - base:.9f},{t1 - base:.9f},{raised}]\n")


def _bind(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def useful_points(state, m_index, tol: float, truncation) -> tuple[int, int]:
    """(points summed, points within the smallest radius whose omitted mass <= tol).

    Term magnitudes are |c| exp(-pi tr(M (x Im A x^T + 2 x Im B^T))) over the
    sup-norm box of the returned radius; the mass outside that box is bounded
    by the certified tail.
    """
    mm = np.atleast_2d(np.asarray(m_index, dtype=float))
    m, n = state.shape
    dim, radius = m * n, truncation.radius
    axis = np.arange(-radius, radius + 1)
    pts = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), -1).reshape(-1, m, n)
    quad = np.einsum("kij,jl,kml,im->k", pts, state.a.imag, pts, mm)
    lin = 2 * np.einsum("kij,lj,il->k", pts, state.b.imag, mm)
    mags = abs(state.c) * np.exp(-math.pi * (quad + lin))
    shell = np.abs(pts.reshape(len(pts), -1)).max(axis=1)
    mass = np.bincount(shell, weights=mags, minlength=radius + 1)
    omitted = np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]]) + truncation.tail_bound
    needed = int(np.argmax(omitted <= tol)) if np.any(omitted <= tol) else radius
    return len(pts), (2 * needed + 1) ** dim
