"""The benchmark's tracer wraps public names of delaysde; a rename or a
removal in the package must show here, not first in a benchmark run."""

import importlib
import importlib.util
import time
from pathlib import Path

import pytest

from delaysde import coupling, girsanov, measure, model, solver, zvonkin
from delaysde.zvonkin import TransformedModel

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls():
    """The tracer installs, runs and uninstalls.  Its count hooks read
    PathBatch.states and dW, CouplingResult.x_states, r0, h, dW and coupled,
    WeakEstimate.ess and n_paths, and ZvonkinSolution.ratios, and the traced
    make_model replaces b, B and Q: small calls through each hooked entry
    point show a break here, not first in a traced benchmark run."""
    spans = _load_spans()
    make_model = model.make_model
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.open_root()
        h = 2.0**-4
        nu = measure.make_measure("exponential", 0.5, h, lam=1.0)
        m = model.make_model("reference", measure=nu)
        sol = zvonkin.solve_u(m, 16.0, 0.5 + nu.r0, n_x=41, n_t=5)
        t_ops = time.perf_counter()
        tracer.phase = "ops"
        xi = measure.constant_segment(nu, 0.5)
        cfg = solver.SolverConfig(h=h, t_end=0.5)
        solver.simulate(m, nu, xi, cfg, 0, 8)
        f, _ = model.make_functional("tanh0", nu)
        girsanov.weak_estimate(m, nu, xi, f, 0.5, cfg, 0, 8)
        tm = zvonkin.transformed_model(m, nu, sol)
        xi_t = tm.seg_to_transformed(0.0, xi.values[None], h)[0]
        cc = coupling.CouplingConfig(T=0.5, h=h, K=2.0)
        coupling.run_coupling_batch(tm, nu, xi_t, xi_t + 0.05, cc, 0, 8)
        tracer.close_root()
        values = spans.layer_metrics(tracer, t_ops, 1, 0.0)
    finally:
        tracer.uninstall()
    assert model.make_model is make_model
    assert sorted(values) == sorted(name for name, _ in spans.LAYER_METRICS)
    assert values["zvonkin.solve_u_calls"] == 1
    assert values["zvonkin.picard_sweeps"] >= 1
    # one simulate call of 8 paths, and the one inside weak_estimate
    assert values["solver.path_steps"] == 2 * 8 * 8
    assert values["coupling.pair_steps"] == 8 * 16  # the pairs run on [0, T + r0]
    assert values["model.B_calls"] > 0 and values["zvonkin.lookup_calls"] > 0
    assert 0 < values["girsanov.ess_frac"] <= 1
    assert 0 <= values["coupling.coupled_frac"] <= 1


def test_transformed_model_keeps_what_the_benchmark_reads():
    # the coupling count hook reads tm.sol; the couple set-up calls seg_to_transformed
    assert "sol" in TransformedModel.__dataclass_fields__
    assert callable(TransformedModel.seg_to_transformed)


@pytest.mark.parametrize("name", ["reweight", "couple", "cli"])
def test_benchmark_reference_values_still_match(name, tmp_path, monkeypatch):
    """Each workload's pinned-seed summary matches bench/reference.json, so a
    change of numbers shows here before a benchmark run reports it."""
    monkeypatch.syspath_prepend(str(SPANS.parent))
    worker = importlib.import_module("worker")
    wl = worker.WORKLOADS[name]
    st = wl.setup(str(tmp_path))
    assert worker.check_reference(wl, st, name) == []
