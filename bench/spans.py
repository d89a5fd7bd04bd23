"""In-memory spans around the public entry points of delaysde, and the
per-layer metrics computed from them.

Spans are recorded from the benchmark's side only: the tracer replaces each
traced function at every module attribute that binds it (a name imported
with ``from .x import y`` is a separate binding), wraps the two lookup
methods of ``ZvonkinSolution``, and wraps the coefficient callables of every
``ModelSpec`` that ``make_model`` returns.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from collections import defaultdict

from delaysde import model, zvonkin

# (metric name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("rng.busy_s", "s"),
    ("rng.draws", "count"),
    ("model.b_s", "s"),
    ("model.B_s", "s"),
    ("model.Q_s", "s"),
    ("model.B_calls", "count"),
    ("solver.self_s", "s"),
    ("solver.path_steps", "count"),
    ("solver.state_bytes", "bytes-computed"),
    ("girsanov.self_s", "s"),
    ("girsanov.log_density_s", "s"),
    ("girsanov.solve_qqt_s", "s"),
    ("girsanov.ess_frac", "ratio"),
    ("zvonkin.solve_u_s", "s"),
    ("zvonkin.solve_u_calls", "count"),
    ("zvonkin.picard_sweeps", "count"),
    ("zvonkin.inverse_s", "s"),
    ("zvonkin.inverse_calls", "count"),
    ("zvonkin.inverse_iters", "count/call"),
    ("zvonkin.lookup_s", "s"),
    ("zvonkin.lookup_calls", "count"),
    ("coupling.self_s", "s"),
    ("coupling.pair_steps", "count"),
    ("coupling.coupled_frac", "ratio"),
    ("coupling.state_bytes", "bytes-computed"),
    ("harnack.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.nonstrict_json_files", "count"),
    ("trace.root_self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.op_wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)

# Self time of these spans is summed into each time metric.
SELF_TIME = {
    "rng.busy_s": ("rng.batch_increments",),
    "model.b_s": ("model.b",),
    "model.B_s": ("model.B",),
    "model.Q_s": ("model.Q",),
    "solver.self_s": ("solver.simulate",),
    "girsanov.self_s": ("girsanov.direct_estimate", "girsanov.weak_estimate"),
    "girsanov.log_density_s": ("girsanov.log_density",),
    "girsanov.solve_qqt_s": ("girsanov.solve_qqt",),
    "zvonkin.solve_u_s": ("zvonkin.solve_u",),
    "zvonkin.inverse_s": ("zvonkin.theta_inverse",),
    "zvonkin.lookup_s": ("zvonkin.eval_u", "zvonkin.eval_du"),
    "coupling.self_s": ("coupling.run_coupling_batch", "coupling.entropy_cost"),
    "harnack.self_s": ("harnack.check_log_harnack",),
    "cli.self_s": ("cli.main",),
}

# Span counts reported as call counts.
CALLS = {
    "model.B_calls": ("model.B",),
    "zvonkin.solve_u_calls": ("zvonkin.solve_u",),
    "zvonkin.inverse_calls": ("zvonkin.theta_inverse",),
    "zvonkin.lookup_calls": ("zvonkin.eval_u", "zvonkin.eval_du"),
}


# ---------------------------------------------------------------------------
# exact counts taken from arguments and return values

def _count_draws(tr, a, out):
    tr.add("rng.draws", a["n_paths"] * a["n_steps"] * a["dbar"])


def _count_simulate(tr, a, out):
    tr.add("solver.path_steps", out.dW.shape[0] * out.dW.shape[1])
    tr.peak("solver.state_bytes", out.states.nbytes + out.dW.nbytes)


def _count_weak(tr, a, out):
    tr.add("girsanov.ess_sum", out.ess / out.n_paths)
    tr.add("girsanov.ess_n", 1)


def _count_solve_u(tr, a, out):
    # the first sweep has no contraction ratio
    tr.add("zvonkin.picard_sweeps", len(out.ratios) + 1)


def _count_coupling(tr, a, out):
    n, n_nodes, _ = out.x_states.shape
    n0 = int(round(out.r0 / out.h))
    tr.add("coupling.pair_steps", n * (n_nodes - n0 - 1))
    tr.add("coupling.coupled_sum", float(out.coupled.mean()))
    tr.add("coupling.coupled_n", 1)
    # x, y and, with a transform, their pulled-back copies, plus the noise
    copies = 2 if a["tm"].sol is None else 4
    tr.peak("coupling.state_bytes", copies * out.x_states.nbytes + out.dW.nbytes)


# (module, attribute, span name, count hook)
ENTRY_POINTS = (
    ("rng", "batch_increments", "rng.batch_increments", _count_draws),
    ("solver", "simulate", "solver.simulate", _count_simulate),
    ("girsanov", "direct_estimate", "girsanov.direct_estimate", None),
    ("girsanov", "weak_estimate", "girsanov.weak_estimate", _count_weak),
    ("girsanov", "log_density", "girsanov.log_density", None),
    ("girsanov", "solve_qqt", "girsanov.solve_qqt", None),
    ("zvonkin", "solve_u", "zvonkin.solve_u", _count_solve_u),
    ("zvonkin", "theta_inverse", "zvonkin.theta_inverse", None),
    ("coupling", "run_coupling_batch", "coupling.run_coupling_batch", _count_coupling),
    ("coupling", "entropy_cost", "coupling.entropy_cost", None),
    ("harnack", "check_log_harnack", "harnack.check_log_harnack", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records (name, start, end, parent) spans and exact counts in memory.

    ``phase`` names the part of the run that counts are booked to: "setup"
    (counted once) or "ops" (averaged over the traced operations).
    """

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list = []
        self._undo: list = []
        self.phase = "setup"
        self.counts = {"setup": defaultdict(float), "ops": defaultdict(float)}
        self.peaks: dict = defaultdict(float)

    def add(self, key: str, value: float) -> None:
        self.counts[self.phase][key] += value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    def wrap(self, fn, name: str, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if count is not None else None

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, out)
            return out

        return traced

    def open_root(self) -> None:
        self._stack.append(len(self.spans))
        self.spans.append(["root", time.perf_counter(), 0.0, -1])

    def close_root(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _rebind(self, orig, replacement) -> None:
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "delaysde" and not name.startswith("delaysde."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, orig))

    def install(self) -> None:
        """Wrap every binding of the traced entry points in the loaded package."""
        for mod_name, attr, span, count in ENTRY_POINTS:
            orig = getattr(importlib.import_module(f"delaysde.{mod_name}"), attr)
            self._rebind(orig, self.wrap(orig, span, count))
        for attr in ("eval_u", "eval_du"):
            orig = vars(zvonkin.ZvonkinSolution)[attr]
            setattr(zvonkin.ZvonkinSolution, attr, self.wrap(orig, f"zvonkin.{attr}"))
            self._undo.append((zvonkin.ZvonkinSolution, attr, orig))
        make_model = model.make_model

        def traced_make_model(*args, **kwargs):
            spec = make_model(*args, **kwargs)
            return dataclasses.replace(
                spec,
                b=self.wrap(spec.b, "model.b"),
                B=self.wrap(spec.B, "model.B"),
                Q=self.wrap(spec.Q, "model.Q"),
            )

        self._rebind(make_model, traced_make_model)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 where the layer never ran."""
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, t_ops: float, n_ops: int, overhead_frac: float) -> dict:
    """Per-layer values for one set-up plus one operation.

    Set-up work (the spans and counts before ``t_ops``) is counted once; work
    in the operations phase is divided by ``n_ops``.  Self time is a span's
    duration minus that of its direct children, so the self times of all
    spans plus the root's own time add up to the traced wall time.
    """
    child = [0.0] * len(tr.spans)
    for name, start, end, parent in tr.spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(float)
    inverse_iters = 0
    root = tr.spans[0]
    for i, (name, start, end, parent) in enumerate(tr.spans[1:], start=1):
        w = 1.0 if start < t_ops else 1.0 / n_ops
        self_s[name] += w * (end - start - child[i])
        calls[name] += w
        if name == "zvonkin.eval_u" and tr.spans[parent][0] == "zvonkin.theta_inverse":
            inverse_iters += 1
    # the root's own time, split at the phase boundary
    setup_children = sum(
        end - start for _, start, end, parent in tr.spans[1:] if parent == 0 and start < t_ops
    )
    ops_children = child[0] - setup_children
    root_self = (t_ops - root[1] - setup_children) + (root[2] - t_ops - ops_children) / n_ops
    op_wall = (root[2] - t_ops) / n_ops

    setup, ops = tr.counts["setup"], tr.counts["ops"]

    def get(key):
        return setup.get(key, 0.0) + ops.get(key, 0.0) / n_ops

    values = {k: sum(self_s[n] for n in names) for k, names in SELF_TIME.items()}
    values.update({k: sum(calls[n] for n in names) for k, names in CALLS.items()})
    n_inv = sum(1 for s in tr.spans if s[0] == "zvonkin.theta_inverse")
    values.update({
        "rng.draws": get("rng.draws"),
        "solver.path_steps": get("solver.path_steps"),
        "solver.state_bytes": tr.peaks["solver.state_bytes"],
        "girsanov.ess_frac": _ratio(get("girsanov.ess_sum"), get("girsanov.ess_n")),
        "zvonkin.picard_sweeps": get("zvonkin.picard_sweeps"),
        "zvonkin.inverse_iters": _ratio(inverse_iters, n_inv),
        "coupling.pair_steps": get("coupling.pair_steps"),
        "coupling.coupled_frac": _ratio(get("coupling.coupled_sum"), get("coupling.coupled_n")),
        "coupling.state_bytes": tr.peaks["coupling.state_bytes"],
        "cli.output_bytes": get("cli.output_bytes"),
        "cli.nonstrict_json_files": get("cli.nonstrict_json_files"),
        "trace.root_self_s": root_self,
        "trace.wall_s": t_ops - root[1] + op_wall,
        "trace.op_wall_s": op_wall,
        "trace.spans": 1.0 + sum(calls.values()),
        "trace.overhead_frac": overhead_frac,
    })
    return values
