"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the layers on the hot path from
outside the program: names bound by ``from ... import`` are patched at the
module that imports them (``evolve.assemble_frozen_from_coeffs``,
``hum.evolve_linear``, ``picard.evolve_nonlinear``, ...), methods on their
classes.  ``installed()`` puts the wrappers in place for one run and
restores the original objects afterwards.

Each wrapped call inside an operation records a span (name, start, end,
parent) in memory; a few boundaries also add counts measured where the work
happens (CG iterations, nonzeros of assembled operators, ...).  Self times
are derived from the spans, and ``write()`` stores them when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.sparse.linalg as spla

from torusctrl import evolve, hum, model, pairops, picard, spectral

OP = "bench.op"

# (name, unit) of every per-layer metric, in report order; a layer that does
# not run on a workload reports 0
PER_LAYER = [
    ("hum.cg_solves", "count/op"),
    ("hum.cg_iters", "iter/solve"),
    ("hum.cg_s", "s/op"),
    ("hum.gramian_applies", "count/op"),
    ("hum.applies_per_control", "ratio"),
    ("hum.cg_condition", "ratio"),
    ("hum.neumann_sweeps", "count/op"),
    ("hum.neumann_s", "s/op"),
    ("hum.gramian_apply_s.free", "s/call"),
    ("hum.gramian_apply_s.frozen", "s/call"),
    ("hum.duality_defect", "ratio"),
    ("picard.rounds", "count/op"),
    ("picard.round_s", "s/round"),
    ("picard.replay_s", "s/op"),
    ("picard.replay_terminal_ratio", "ratio"),
    ("model.assemble_A_s", "s/op"),
    ("model.assemble_frozen_s", "s/op"),
    ("model.assemble_calls", "count/op"),
    ("model.coeff_s", "s/op"),
    ("model.assembly_share", "ratio"),
    ("model.op_density", "ratio"),
    ("model.op_mbytes", "MB.computed"),
    ("paradiff.banded_s", "s/op"),
    ("paradiff.banded_calls", "count/op"),
    ("paradiff.banded_modes", "modes/call"),
    ("pairops.apply_calls", "count/op"),
    ("pairops.apply_s", "s/op"),
    ("pairops.apply_mbytes", "MB/call.computed"),
    ("pairops.transpose_s", "s/op"),
    ("evolve.linear_calls", "count/op"),
    ("evolve.linear_step_s.frozen", "s/step"),
    ("evolve.linear_step_s.free", "s/step"),
    ("evolve.nonlinear_step_s", "s/step"),
    ("evolve.gmres_fallbacks", "count/op"),
    ("spectral.fft_calls", "count/op"),
    ("spectral.fft_s", "s/op"),
    ("trace.op_s_p50", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count/op"),
]

ASSEMBLY = ("model.compute_coefficients", "model.assemble_A", "model.assemble_frozen")


def _csr_bytes(M):
    return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


def _pairop_bytes(op):
    return _csr_bytes(op.Z) + (0 if op.C is None else _csr_bytes(op.C))


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.spans = []            # (name id, start, end, parent span index or -1)
        self.totals = defaultdict(float)
        self.samples = defaultdict(list)
        self._stack = []
        self.active = False

    # -- recording -------------------------------------------------------------

    def _id(self, name):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name, fn, note=None):
        """fn recording a span per call while active; note(args, out, seconds) adds counts."""
        nid = self._id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if note is not None:
                note(args, out, t1 - t0)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self):
        """Root span of one benchmark operation; spans are recorded only inside it."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[idx] = (self._id(OP), t0, t1, -1)

    # -- installation ------------------------------------------------------------

    def patches(self):
        """(owner, attribute, span name, note) of every wrapped callable."""
        t = self.totals
        s = self.samples

        def cg(args, out, sec):
            rep = out[1]
            s["cg_iters"].append(rep.iterations)
            if rep.iterations > 0 and rep.rayleigh_min > 0.0:
                s["cg_condition"].append(rep.rayleigh_max / rep.rayleigh_min)

        def gramian(args, out, sec):
            kind = "free" if isinstance(args[0].simp, evolve.FreeProgram) else "frozen"
            t[f"gramian.{kind}.s"] += sec
            t[f"gramian.{kind}.calls"] += 1

        def linear(args, out, sec):
            kind = "free" if isinstance(args[0], evolve.FreeProgram) else "frozen"
            t[f"linear.{kind}.s"] += sec
            t[f"linear.{kind}.steps"] += out.tg.steps

        def nonlinear(args, out, sec):
            t["nonlinear.s"] += sec
            t["nonlinear.steps"] += out.tg.steps

        def assembled(args, op, sec):
            n = op.grid.size
            nnz = op.Z.nnz + (0 if op.C is None else op.C.nnz)
            s["op_density"].append(nnz / (2.0 * n * n))
            s["op_mbytes"].append(_pairop_bytes(op) / 1e6)

        def banded(args, out, sec):
            s["banded_modes"].append(sum(int(np.count_nonzero(term.coeff))
                                         for term in args[0].terms if term.coeff is not None))

        def applied(args, out, sec):
            op, w = args[0], args[1]
            vectors = 2 if op.C is None else 4
            t["apply.bytes"] += _pairop_bytes(op) + vectors * w.nbytes

        P = pairops.PairOp
        H = hum.HumProblem
        G = spectral.TorusGrid
        return [
            (picard, "null_control", "picard.null_control", None),
            (picard, "evolve_nonlinear", "evolve.evolve_nonlinear", nonlinear),
            (evolve, "evolve_nonlinear", "evolve.evolve_nonlinear", nonlinear),
            (H, "control_op", "hum.control_op", None),
            (H, "control_op_P", "hum.control_op_P", None),
            (H, "perturbation_E", "hum.perturbation_E", None),
            (H, "hum_invert", "hum.hum_invert", cg),
            (H, "hum_apply", "hum.hum_apply", gramian),
            (hum, "evolve_linear", "evolve.evolve_linear", linear),
            (evolve, "compute_coefficients", "model.compute_coefficients", None),
            (evolve, "assemble_A_from_coeffs", "model.assemble_A", assembled),
            (evolve, "assemble_frozen_from_coeffs", "model.assemble_frozen", assembled),
            (model, "banded_matrix", "paradiff.banded_matrix", banded),
            (P, "apply", "pairops.apply", applied),
            (P, "transpose_pairing", "pairops.transpose_pairing", None),
            (G, "coeffs_from_values", "spectral.fft", None),
            (G, "values_from_coeffs", "spectral.fft", None),
            (spla, "gmres", "evolve.gmres", None),
        ]

    @contextmanager
    def installed(self):
        """Wrap every patched callable for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, note in self.patches():
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, note))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- reduction -------------------------------------------------------------

    def arrays(self):
        rec = np.array(self.spans, dtype=float).reshape(-1, 4)
        return (rec[:, 0].astype(int), rec[:, 1], rec[:, 2], rec[:, 3].astype(int))

    def self_times(self):
        """{name: (calls, inclusive seconds, self seconds)} over all spans."""
        nid, t0, t1, parent = self.arrays()
        dur = t1 - t0
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            m = nid == i
            out[name] = (int(m.sum()), float(dur[m].sum()), float(own[m].sum()))
        return out

    def metrics(self, op_seconds, duality_defect, extras, span_cost):
        """Per-layer metrics, in PER_LAYER order, averaged over the traced operations."""
        nid, t0, t1, parent = self.arrays()
        dur = t1 - t0
        ops = len(op_seconds)
        t, s = self.totals, self.samples
        ids = self._name_id

        def where(name):
            return nid == ids[name] if name in ids else np.zeros(len(nid), dtype=bool)

        def calls(name):
            return float(where(name).sum())

        def secs(name, parent_name=None):
            m = where(name)
            if parent_name is not None:
                m &= (parent >= 0) & where(parent_name)[np.maximum(parent, 0)]
            return float(dur[m].sum())

        def ratio(a, b):
            return a / b if b else 0.0

        def mean(xs):
            return float(np.mean(xs)) if xs else 0.0

        # Gramian applications of the solve that yields the control, against all of them
        applies = where("hum.hum_apply")
        solve = np.maximum(parent, 0)
        owner = np.maximum(parent[solve], 0)
        useful = applies & (where("hum.control_op") | where("hum.control_op_P"))[owner]
        op_total = float(np.sum(op_seconds))
        assembly = sum(secs(name) for name in ASSEMBLY)

        values = {
            "hum.cg_solves": calls("hum.hum_invert") / ops,
            "hum.cg_iters": mean(s["cg_iters"]),
            "hum.cg_s": secs("hum.hum_invert") / ops,
            "hum.gramian_applies": applies.sum() / ops,
            "hum.applies_per_control": ratio(float(useful.sum()), float(applies.sum())),
            "hum.cg_condition": float(np.median(s["cg_condition"])) if s["cg_condition"] else 0.0,
            "hum.neumann_sweeps": calls("hum.perturbation_E") / ops,
            "hum.neumann_s": secs("hum.perturbation_E") / ops,
            "hum.gramian_apply_s.free": ratio(t["gramian.free.s"], t["gramian.free.calls"]),
            "hum.gramian_apply_s.frozen": ratio(t["gramian.frozen.s"], t["gramian.frozen.calls"]),
            "hum.duality_defect": duality_defect,
            "picard.rounds": calls("hum.control_op_P") / ops,
            "picard.round_s": ratio(secs("hum.control_op_P"), calls("hum.control_op_P")),
            "picard.replay_s": secs("evolve.evolve_nonlinear", "picard.null_control") / ops,
            "picard.replay_terminal_ratio": mean(extras.get("picard.replay_terminal_ratio", [])),
            "model.assemble_A_s": secs("model.assemble_A") / ops,
            "model.assemble_frozen_s": secs("model.assemble_frozen") / ops,
            "model.assemble_calls": (calls("model.assemble_A") + calls("model.assemble_frozen")) / ops,
            "model.coeff_s": secs("model.compute_coefficients") / ops,
            "model.assembly_share": ratio(assembly, op_total),
            "model.op_density": mean(s["op_density"]),
            "model.op_mbytes": mean(s["op_mbytes"]),
            "paradiff.banded_s": secs("paradiff.banded_matrix") / ops,
            "paradiff.banded_calls": calls("paradiff.banded_matrix") / ops,
            "paradiff.banded_modes": mean(s["banded_modes"]),
            "pairops.apply_calls": calls("pairops.apply") / ops,
            "pairops.apply_s": secs("pairops.apply") / ops,
            "pairops.apply_mbytes": ratio(t["apply.bytes"], calls("pairops.apply")) / 1e6,
            "pairops.transpose_s": secs("pairops.transpose_pairing") / ops,
            "evolve.linear_calls": calls("evolve.evolve_linear") / ops,
            "evolve.linear_step_s.frozen": ratio(t["linear.frozen.s"], t["linear.frozen.steps"]),
            "evolve.linear_step_s.free": ratio(t["linear.free.s"], t["linear.free.steps"]),
            "evolve.nonlinear_step_s": ratio(t["nonlinear.s"], t["nonlinear.steps"]),
            "evolve.gmres_fallbacks": calls("evolve.gmres") / ops,
            "spectral.fft_calls": calls("spectral.fft") / ops,
            "spectral.fft_s": secs("spectral.fft") / ops,
            "trace.op_s_p50": statistics.median(op_seconds),
            "trace.overhead_share": ratio(span_cost * len(nid), op_total),
            "trace.spans": len(nid) / ops,
        }
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}

    def write(self, path):
        """Store the spans (name, start, end, parent) as a compressed archive."""
        nid, t0, t1, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=nid, start=t0, end=t1,
                            parent=parent)


def _call(_):
    return None


def span_cost(repeats=20000):
    """Seconds one recorded span adds to a call, measured on an empty function."""
    tr = Tracer()
    fn = tr.wrap("calibrate", _call)
    tr.active = True
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn(None)
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        _call(None)
    bare = time.perf_counter() - t0
    return max(traced - bare, 0.0) / repeats
