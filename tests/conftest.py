import numpy as np
import pytest

from delaysde import constant_segment, make_measure, make_model

H = 2.0**-7
R0 = 1.0

# verdict lines from the acceptance suite, echoed after the test summary
acceptance_lines: list = []


@pytest.fixture(scope="session")
def acceptance_report():
    def report(num: int, ok: bool, detail: str) -> None:
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
        print(line)
        acceptance_lines.append(line)
        assert ok, line

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def pin_stored_row_chunk(monkeypatch):
    """pin() sets rng.STORED_ROW_CHUNK to 1024 paths, so that a run of 1100
    paths spans two chunks and --workers > 1 starts a pool, and returns the
    list that collects the chunk count of each map_columns call over
    stored-row chunks from then on."""
    from delaysde import cli, harnack, rng

    real = rng.map_columns
    counts = []

    def counted(n_paths, chunk, fn, workers=1):
        if chunk == rng.STORED_ROW_CHUNK:
            counts.append(len(range(0, n_paths, chunk)))
        return real(n_paths, chunk, fn, workers)

    def pin():
        monkeypatch.setattr(rng, "STORED_ROW_CHUNK", 1024)
        for module in (rng, cli, harnack):
            monkeypatch.setattr(module, "map_columns", counted)
        return counts

    return pin


@pytest.fixture(scope="session")
def nu():
    return make_measure("exponential", R0, H, lam=1.0)


@pytest.fixture(scope="session")
def nu_uniform():
    return make_measure("uniform", R0, H)


@pytest.fixture(scope="session")
def ou_model():
    return make_model("ou", lam=1.0, sigma=1.0)


@pytest.fixture(scope="session")
def reference_model(nu):
    return make_model("reference", measure=nu)


@pytest.fixture(scope="session")
def linear_delay_model(nu):
    return make_model("linear_delay", measure=nu)


@pytest.fixture(scope="session")
def xi_one(nu):
    return constant_segment(nu, 1.0)


@pytest.fixture(scope="session")
def xi_half(nu):
    return constant_segment(nu, 0.5)


@pytest.fixture(scope="session")
def zvonkin_sol(reference_model):
    from delaysde.zvonkin import solve_u

    return solve_u(reference_model, 16.0, 2.0)
