"""The benchmark's tracer wraps public names of delaysde; a rename or a
removal in the package must show here, not first in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from delaysde.zvonkin import TransformedModel

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_uninstalls():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


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
