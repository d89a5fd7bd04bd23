import configparser
import io
import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from delaysde import cli, rng
from delaysde.bihari import apriori_check
from delaysde.cli import ConfigError, main, parse_config
from delaysde.harnack import check_log_harnack
from delaysde.measure import make_measure
from delaysde.model import make_functional, make_model

BASE = """\
[experiment]
scenario = simulate
n_paths = 20
base_seed = 1
[model]
name = zero
lam = 1.0
x0 = 1.0
[solver]
h = 0.0625
t_end = 1.0
[measure]
kind = uniform
r0 = 0.5
"""


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_defaults():
    cfg = parse_config("[experiment]\nscenario = simulate\n")
    assert cfg.n_paths == 1000
    assert cfg.base_seed == 0
    assert cfg.format == "json"
    assert cfg.workers == 1


def test_parse_unknown_scenario_lists_valid():
    with pytest.raises(ConfigError) as exc:
        parse_config("[experiment]\nscenario = frobnicate\n")
    assert "simulate" in str(exc.value)
    assert exc.value.field == "experiment.scenario"


def test_parse_unknown_key_and_section():
    with pytest.raises(ConfigError) as exc:
        parse_config("[experiment]\nscenario = simulate\nturbo = yes\n")
    assert exc.value.field == "experiment.turbo"
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nscenario = simulate\n[plotting]\nstyle = dark\n")


def test_parse_incommensurate_grid():
    text = BASE.replace("h = 0.0625", "h = 0.3")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.field == "grids"


def test_parse_bad_counts_and_format():
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nscenario = simulate\nn_paths = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nscenario = simulate\nformat = yaml\n")
    with pytest.raises(ConfigError):
        parse_config("[experiment]\nscenario = simulate\nn_paths = many\n")


def test_parse_keys_are_case_sensitive():
    cfg = parse_config(
        "[experiment]\nscenario = couple\n[coupling]\nT = 0.5\nK = 2.0\ndistance0 = 0.1\n"
    )
    assert cli.resolved_config(cfg)["coupling"]["T"] == "0.5"


def test_main_missing_config_exits_3(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.ini")]) == 3


@pytest.mark.parametrize("argv", [
    ["cpl", "--config", "x.ini"],  # unknown scenario
    ["couple"],  # no --config
])
def test_main_usage_error_exits_3(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:")


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_main_config_error_exits_3(tmp_path):
    path = _write(tmp_path, BASE.replace("h = 0.0625", "h = 0.3"))
    assert main(["simulate", "--config", path]) == 3


KD = "K = 1.0\ndistance0 = 0.1\n"  # the defaults these keys had before they were required
ATOMS = ",".join(["0.125"] * 8)  # one weight per cell of BASE's measure


@pytest.mark.parametrize("scenario, model, extra, argv, field", [
    ("bihari", "ou", "", [], "model.name"),  # no growth data
    ("simulate", "ou", "", ["--seed", "-1"], "experiment.base_seed"),
    ("gradient", "ou", "[gradient]\neps_fd = 0.5\n", [], "gradient.eps_fd"),
    ("girsanov-check", "ou", "[girsanov]\nfunctional = nope\n", [], "girsanov.functional"),
    ("zvonkin", "reference", "[zvonkin]\nlams = 2,x\n", [], "zvonkin.lams"),
    ("zvonkin", "reference", "[zvonkin]\nlams = 0,2\n", [], "zvonkin.lams"),
    ("couple", "reference", f"[coupling]\nT = 0.5\n{KD}lam_u = 0\n", [], "coupling.lam_u"),
    ("zvonkin", "reference", "[zvonkin]\nT = 0\n", [], "zvonkin.T"),
    ("zvonkin", "reference", "[zvonkin]\nn_t = 1\n", [], "zvonkin.n_t"),
    ("zvonkin", "reference", "[zvonkin]\nn_t = 8.5\n", [], "zvonkin.n_t"),
    ("zvonkin", "reference", "[zvonkin]\nn_x = 0\n", [], "zvonkin.n_x"),
    ("zvonkin", "reference", "[zvonkin]\nx_max = 0\n", [], "zvonkin.x_max"),
    ("harnack", "ou", "", ["--paths", "1"], "experiment.n_paths"),  # no stderr from one path
    ("gradient", "ou", "", ["--paths", "1"], "experiment.n_paths"),
    ("girsanov-check", "ou", "", ["--paths", "1"], "experiment.n_paths"),
    ("simulate", "ou\nx0 = abc", "", [], "model.x0"),
    ("simulate", "ou\nx0 = nan", "", [], "model.x0"),
    ("girsanov-check", "ou", "[girsanov]\nT = -1\n", [], "girsanov.T"),
    ("gradient", "ou", "[gradient]\nT = -1\n", [], "gradient.T"),
    ("gradient", "ou", "[gradient]\nT = -0.5\n", [], "gradient.T"),
    ("bihari", "linear_delay", "[bihari]\nT = 2\n", [], "bihari.T"),  # solver.t_end = 1
    ("girsanov-check", "ou", "[girsanov]\nT = 0.3\n", [], "girsanov.T"),  # solver.h = 0.0625
    ("gradient", "ou", "[gradient]\nT = 0.3\n", [], "gradient.T"),
    ("bihari", "linear_delay", "[bihari]\nT = 0.3\n", [], "bihari.T"),
    ("simulate", "tabulated", "", [], "model.name"),  # the CLI cannot pass xs, ys
    ("couple", "reference\nsigma = 0", f"[coupling]\nT = 0.5\n{KD}", [], "model.sigma"),
    ("zvonkin", "zero", "", [], "model.sigma"),  # u needs a diffusion even for b = 0
    ("simulate", "ou", "[solver]\nh = inf\n", [], "solver.h"),
    ("simulate", "ou", "[solver]\nh = nan\n", [], "solver.h"),
    ("simulate", "ou", "[measure]\nr0 = inf\n", [], "measure.r0"),
    ("simulate", "ou", "[measure]\nr0 = nan\n", [], "measure.r0"),
    ("simulate", "ou", "[solver]\nt_end = inf\n", [], "solver.t_end"),
    ("simulate", "ou", "[solver]\nt_end = nan\n", [], "solver.t_end"),
    ("simulate", "linear_delay\nsigma = nan", "", [], "model.sigma"),
    ("simulate", "ou\nlam = nan", "", [], "model.lam"),
    ("simulate", "reference\nsigma = inf", "", [], "model.sigma"),
    ("simulate", "linear_delay\nbeta = -inf", "", [], "model.beta"),
    ("simulate", "ou\nd = 0", "", [], "model.d"),
    ("simulate", "ou", "", ["--seed", str(2**64)], "experiment.base_seed"),
    ("girsanov-check", "ou", "", ["--seed", str(2**64 - 1)], "experiment.base_seed"),
    # an empty cell receives shifted mass, so kappa(T) and the bound's K1 are infinite
    ("bihari", "linear_delay", "[measure]\nkind = atoms\nweights = 0.1,0,0,0,0.2,0,0,0\n", [],
     "measure"),
    ("couple", "ou", f"[coupling]\nT = inf\n{KD}", [], "coupling.T"),
    ("couple", "ou", f"[coupling]\nT = nan\n{KD}", [], "coupling.T"),
    ("harnack", "ou", f"[coupling]\nT = inf\n{KD}", [], "coupling.T"),
    ("harnack", "ou", f"[coupling]\nT = nan\n{KD}", [], "coupling.T"),
    ("couple", "ou", f"[coupling]\nT = 0.3\n{KD}", [], "coupling.T"),  # solver.h = 0.0625
    ("couple", "ou", "[coupling]\nK = nan\ndistance0 = 0.1\n", [], "coupling.K"),
    ("couple", "ou", "[coupling]\nK = inf\ndistance0 = 0.1\n", [], "coupling.K"),
    ("couple", "ou", "[coupling]\nK = 1.0\ndistance0 = nan\n", [], "coupling.distance0"),
    ("harnack", "ou", "[coupling]\nK = 1.0\ndistance0 = inf\n", [], "coupling.distance0"),
    ("couple", "ou", f"[coupling]\n{KD}distance_seg = inf\n", [], "coupling.distance_seg"),
    # |xi(0) - eta(0)| squares to inf in the meeting radius: every pair would meet at t = 0
    ("couple", "ou", "[coupling]\nK = 1.0\ndistance0 = 1e300\n", [], "coupling.distance0"),
    ("harnack", "ou", "[coupling]\nK = 1.0\ndistance0 = 1.5e308\n", [], "coupling.distance0"),
    ("couple", "ou", "", ["--paths", "1"], "experiment.n_paths"),  # 3 sigma of a zero stderr
    ("couple", "reference", f"[coupling]\nT = 0.5\n{KD}lam_u = inf\n", [], "coupling.lam_u"),
    # K and distance0 have no default that couples
    ("couple", "ou", "[coupling]\nT = 0.5\ndistance0 = 0.1\n", [], "coupling.K"),
    ("couple", "ou", "[coupling]\nT = 0.5\nK = 1.0\n", [], "coupling.distance0"),
    ("harnack", "ou", "[coupling]\nT = 0.5\ndistance0 = 0.1\n", [], "coupling.K"),
    ("harnack", "ou", "[coupling]\nT = 0.5\nK = 1.0\n", [], "coupling.distance0"),
    # a model key that the catalog entry does not read
    ("simulate", "zero\nsigma = 0.5", "", [], "model.sigma"),
    ("simulate", "zero\nbeta = 3.0", "", [], "model.beta"),
    ("simulate", "ou\nbeta = 3.0", "", [], "model.beta"),
    # a measure key that the measure kind does not read (BASE's kind is uniform)
    ("simulate", "ou", "[measure]\nlam = 7.0\n", [], "measure.lam"),
    ("simulate", "ou", "[measure]\nweights = 1,2\n", [], "measure.weights"),
    ("simulate", "ou", "[measure]\nkind = exponential\ndensity = 2.0\n", [], "measure.density"),
    ("simulate", "ou", "[measure]\nkind = exponential\nweights = 1,2\n", [], "measure.weights"),
    ("simulate", "ou", f"[measure]\nkind = atoms\nweights = {ATOMS}\nlam = 2.0\n", [], "measure.lam"),
    ("simulate", "ou", f"[measure]\nkind = atoms\nweights = {ATOMS}\ndensity = 2.0\n", [],
     "measure.density"),
    ("simulate", "ou", "[measure]\nkind = gamma\n", [], "measure.kind"),
], ids=["bihari-ou", "seed", "eps_fd", "functional", "lams-text", "lams-zero", "lam_u",
        "zvonkin-T", "n_t-one", "n_t-fraction", "n_x-zero", "x_max-zero",
        "harnack-one-path", "gradient-one-path", "girsanov-one-path", "x0-text", "x0-nan",
        "girsanov-T", "gradient-T", "gradient-T-half", "bihari-T", "girsanov-T-off-grid",
        "gradient-T-off-grid", "bihari-T-off-grid", "tabulated", "sigma-zero",
        "zvonkin-sigma-zero", "h-inf", "h-nan", "r0-inf", "r0-nan", "t_end-inf", "t_end-nan",
        "sigma-nan", "lam-nan", "sigma-inf", "beta-inf", "d-zero", "seed-2^64",
        "girsanov-seed-2^64-1", "bihari-kappa-inf", "coupling-T-inf", "coupling-T-nan",
        "harnack-T-inf", "harnack-T-nan", "coupling-T-off-grid", "coupling-K-nan",
        "coupling-K-inf", "distance0-nan", "harnack-distance0-inf", "distance_seg-inf",
        "distance0-1e300", "harnack-distance0-1.5e308",
        "couple-one-path", "lam_u-inf", "couple-no-K", "couple-no-distance0", "harnack-no-K",
        "harnack-no-distance0", "zero-sigma", "zero-beta", "ou-beta", "uniform-lam",
        "uniform-weights", "exponential-density", "exponential-weights", "atoms-lam",
        "atoms-density", "unknown-kind"])
def test_invalid_scenario_value_exits_3(tmp_path, capsys, scenario, model, extra, argv, field):
    """A bad value of a scenario's own section is a config error naming the
    field, not a traceback under the exit code of a failed verdict."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(BASE)
    cp.read_string(f"[model]\nname = {model}\n{extra}")  # the case's keys replace BASE's
    text = io.StringIO()
    cp.write(text)
    path = _write(tmp_path, text.getvalue())
    out = tmp_path / "out"
    assert main([scenario, "--config", path, "--out", str(out), *argv]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: [{field}] ")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("trunc_level", "0.01"), ("scheme", "euler-maruyama")])
@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_solver_key_is_refused_by_a_scenario_that_does_not_read_it(
    tmp_path, capsys, scenario, key, value
):
    """trunc_level reaches simulate and bihari only, scheme those and
    girsanov-check; any other scenario would drop the key and echo it in
    verdict.json, so it exits 3 naming the key before any work."""
    text = BASE.replace("t_end = 1.0", f"t_end = 1.0\n{key} = {value}")
    if scenario in cli._KEYS["solver", key].readers:
        cfg = parse_config(text.replace("scenario = simulate", f"scenario = {scenario}"))
        assert cli.resolved_config(cfg)["solver"][key] == value
        return
    out = tmp_path / "out"
    assert main([scenario, "--config", _write(tmp_path, text), "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: [solver.{key}] ")
    assert not out.exists()


@pytest.mark.parametrize("model", ["reference", "linear_delay"])
def test_simulate_zero_diffusion(tmp_path, model):
    text = BASE.replace("name = zero", f"name = {model}\nsigma = 0")
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert json.loads((out / "verdict.json").read_text())["verdict"] == "pass"


def test_couple_unstable_step_exits_3(tmp_path, capsys):
    """h K^2 >= 2 would make the bridged step grow X - Y: a config error on K."""
    text = BASE.replace("scenario = simulate", "scenario = couple").replace(
        "name = zero", "name = ou"
    ) + "[coupling]\nT = 0.5\nK = 6.0\ndistance0 = 0.1\n"  # h K^2 = 2.25
    path = _write(tmp_path, text)
    assert main(["couple", "--config", path, "--out", str(tmp_path / "unstable")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: [coupling.K] h*K^2 = 2.25 >= 2")
    assert not (tmp_path / "unstable").exists()


def test_config_error_pickle_roundtrip():
    """A worker process can hand the error back to its parent intact."""
    err = ConfigError("coupling.K", "h*K^2 = 2.25 >= 2")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ConfigError
    assert (back.field, back.message) == ("coupling.K", "h*K^2 = 2.25 >= 2")
    assert str(back) == str(err) == "[coupling.K] h*K^2 = 2.25 >= 2"


def test_simulate_zero_model_outputs(tmp_path):
    path = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["schema_version"] == 4
    assert verdict["verdict"] == "pass"
    assert verdict["metrics"]["explosion_fraction"] == 0.0
    rows = json.loads((out / "result.json").read_text())["rows"]
    assert len(rows) == 20
    for row in rows:
        assert row[1] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_sim_chunk_returns_arrays_that_own_their_data():
    """A chunk's results must not be views of its path array, which would
    keep every chunk's full paths alive until the rows are written."""
    cfg = parse_config(BASE.replace("name = zero", "name = ou"))
    nu, m, scfg, xi = cli._build(cfg)
    arrays = cli._sim_chunk((cfg.base_seed, nu, m, scfg, xi), 4, 6)
    for a in arrays:
        assert a.shape[0] == 6 and a.base is None


_ROUND_TRIPS = [
    ("simulate", "ou", ""),
    ("couple", "ou", "[coupling]\nT = 0.5\nK = 4.0\ndistance0 = 0.05\n"),
    ("bihari", "linear_delay", ""),
    ("zvonkin", "reference", "[zvonkin]\nlams = 4,8\nT = 0.5\nn_x = 41\nn_t = 9\n"),
]


def test_verdict_config_round_trips(tmp_path):
    """verdict.json carries every key the scenario read, defaults and
    command-line overrides included; written back as INI it reruns to the
    same bytes."""
    for scenario, model, extra in _ROUND_TRIPS:
        (tmp_path / scenario).mkdir()
        _round_trip(tmp_path / scenario, scenario, model, extra)


def _round_trip(work, scenario, model, extra):
    path = _write(work, BASE.replace("name = zero", f"name = {model}") + extra)
    out = work / "first"
    argv = ["--out", str(out), "--seed", "7", "--paths", "30", "--workers", "2"]
    if scenario == "simulate":
        argv += ["--step", "0.125"]
    code = main([scenario, "--config", path, *argv])
    assert code in (0, 1)
    verdict = json.loads((out / "verdict.json").read_text())
    config = verdict["config"]
    assert config["experiment"] == {
        "scenario": scenario, "n_paths": "30", "base_seed": "7", "format": "json",
    }
    kind = config["measure"]["kind"]
    entry = make_model(model, measure=make_measure(kind, 0.5, 0.0625))
    read = {("model", key) for key in ("d", *entry.params)}
    read |= {(sec, key) for (sec, key), spec in cli._KEYS.items()
             if scenario in spec.readers and spec.kind in (None, kind)
             and spec.default is not cli._FROM_MODEL}
    read -= {("experiment", "output"), ("experiment", "workers")}
    assert {(sec, key) for sec, keys in config.items() for key in keys} == read
    if scenario == "simulate":
        assert config["solver"]["h"] == "0.125"
    if scenario == "couple":
        assert config["coupling"] == {"T": "0.5", "K": "4.0", "distance0": "0.05",
                                      "distance_seg": "0.0", "lam_u": "16.0"}
    assert set(verdict["versions"]) == {"delaysde", "numpy", "scipy", "python"}
    text = "\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for sec, keys in config.items())
    assert cli.resolved_config(parse_config(text)) == config
    again = work / "again"
    resolved = _write(work, text, "resolved.ini")
    assert main([scenario, "--config", resolved, "--out", str(again)]) == code
    for name in ("result.json", "verdict.json"):
        if (out / name).exists():
            assert (again / name).read_bytes() == (out / name).read_bytes()


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_config_table_matches_the_code():
    """The README's config table lists the keys and defaults of cli._KEYS."""
    lines = _readme().split("| section | key | default | check | read by |\n")[1].splitlines()
    rows = {}
    for line in lines[1:]:
        if not line.startswith("|"):
            break
        sec, key, default = (cell.strip().strip("`") for cell in line.split("|")[1:4])
        rows[sec, key] = default
    assert rows == {sec_key: cli._text(spec.default) for sec_key, spec in cli._KEYS.items()}


@pytest.mark.parametrize("scenario", ["simulate", "couple"])
def test_readme_example_config_runs_scenarios_that_skip_its_sections(tmp_path, scenario):
    """One config serves every scenario: simulate passes over the README
    example's [coupling] section, which couple reads."""
    ini = _readme().split("```ini\n")[1].split("```")[0]
    assert "[coupling]" in ini
    out = tmp_path / "out"
    assert main([scenario, "--config", _write(tmp_path, ini), "--out", str(out), "--paths", "96"]) == 0
    config = json.loads((out / "verdict.json").read_text())["config"]
    assert ("coupling" in config) == (scenario == "couple")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_simulate_json_is_strict(tmp_path):
    """No path of the zero model exits, so every lifetime is NaN: written as null."""
    path = _write(tmp_path, BASE)
    out = tmp_path / "strict"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    for name in ("result.json", "verdict.json"):
        payload = json.loads((out / name).read_text(), parse_constant=_reject_constant)
        assert payload["schema_version"] == 4
    payload = json.loads((out / "result.json").read_text())
    col = payload["columns"].index("lifetime")
    assert all(row[col] is None for row in payload["rows"])


def test_numerical_failure_exits_2(tmp_path, capsys):
    """A singular diffusion met by the reweighting is exit 2 with a named error."""
    text = BASE.replace("scenario = simulate", "scenario = girsanov-check").replace(
        "name = zero", "name = ou\nsigma = 0.0"
    )
    path = _write(tmp_path, text)
    assert main(["girsanov-check", "--config", path, "--out", str(tmp_path / "sing")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "SingularDiffusionError" in err[0]


def test_gradient_degenerate_variance_exits_2(tmp_path, capsys):
    """With no noise the variance of the gradient check vanishes while the
    derivative does not: exit 2 with a named error, not a traceback."""
    text = BASE.replace("scenario = simulate", "scenario = gradient").replace(
        "name = zero", "name = ou\nsigma = 0"
    ) + "[gradient]\nT = 0.5\n"
    path = _write(tmp_path, text)
    out = tmp_path / "flat"
    assert main(["gradient", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "DegenerateVarianceError" in err[0]
    assert not out.exists()


def test_validate_fails_a_singular_diffusion(tmp_path):
    """(A2') needs QQ* invertible, which sigma = 0 breaks."""
    text = BASE.replace("scenario = simulate", "scenario = validate").replace(
        "name = zero", "name = reference\nsigma = 0"
    )
    out = tmp_path / "singular"
    assert main(["validate", "--config", _write(tmp_path, text), "--out", str(out)]) == 1
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "fail"
    assert verdict["metrics"]["assumptions"] == {"a2": False, "a3": True, "a4": True}


def _old_result_text(fmt, header, columns):
    """result.json as json.dump wrote it from rows of Python values, and
    result.csv as it was written row by row, kept as the oracle of the
    direct formatter."""
    rows = [list(row) for row in zip(*(col.tolist() for col in columns))]
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"schema_version": cli.SCHEMA_VERSION, "columns": header,
               "rows": [[cli._jsonable(v) for v in row] for row in rows]}
    return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [1, 12])
def test_result_rows_match_json_dump(tmp_path, fmt, n):
    """The direct formatter writes the bytes of the json.dump oracle: NaN and
    infinities as null (nan, inf in CSV), ints, -0.0, 1e-05 and 1e+16."""
    floats = np.array([0.5, np.nan, np.inf, -np.inf, -0.0, 1e-05, 1e16, 1.0 / 3.0,
                       5e-324, -1.5e300, 123456789.0, 0.1 + 0.2])[:n]
    columns = [np.arange(n), floats, floats[::-1].copy(), np.arange(n)[::-1] * 2**40 - 7]
    header = ["path", "tau", "log_R", "terminal_equal"]
    cfg = cli.ExperimentConfig("couple", n, 0, str(tmp_path), fmt, 1)
    cli._write_rows(cfg, header, columns)
    got = (tmp_path / f"result.{fmt}").read_text()
    assert got == _old_result_text(fmt, header, columns)


def test_girsanov_explosion_exits_2(tmp_path, capsys):
    """Paths of the direct estimate that die before the horizon are exit 2,
    not an average over their frozen states."""
    text = BASE.replace("scenario = simulate", "scenario = girsanov-check").replace(
        "name = zero", "name = quadratic"
    ).replace("x0 = 1.0", "x0 = 3.0")
    path = _write(tmp_path, text)
    out = tmp_path / "explode"
    assert main(["girsanov-check", "--config", path, "--paths", "64", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "ExplosionBeforeHorizonError" in err[0]
    assert not out.exists()


def test_couple_meets_every_pair_with_a_weak_bridge(tmp_path):
    """With K = 1 the bridge is too weak to bring the pairs together before
    T at this step; the last bridged step closes every one of them, so the
    verdict passes with every pair met and equal at the end."""
    text = BASE.replace("scenario = simulate", "scenario = couple").replace(
        "name = zero", "name = ou"
    ) + "[coupling]\nT = 0.5\nK = 1.0\ndistance0 = 0.1\n"
    path = _write(tmp_path, text)
    out = tmp_path / "weak"
    assert main(["couple", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "pass"
    assert verdict["metrics"]["coupled_fraction"] == 1.0
    assert verdict["metrics"]["terminal_equal_fraction"] == 1.0
    assert abs(verdict["metrics"]["mean_R"] - 1.0) <= 3.0 * verdict["metrics"]["stderr_R"]
    rows = json.loads((out / "result.json").read_text())["rows"]
    assert sum(row[1] == 0.5 for row in rows) > 0  # closed by the last step


@pytest.mark.parametrize("model, K", [("reference", 4.0), ("linear_delay", 0.0)])
def test_couple_closes_every_pair_that_is_apart_before_T(tmp_path, model, K):
    """Pairs still apart at T - h: the transformed reference at K = 4 and
    the identity transform at K = 0, whose bridge meets no pair before T.
    The last bridged step closes each one, so every pair meets at T and
    ends with equal terminal segments."""
    text = f"""\
[experiment]
scenario = couple
n_paths = 400
base_seed = 5
[model]
name = {model}
[measure]
kind = uniform
r0 = 0.5
[solver]
h = 0.0078125
t_end = 1.0
[coupling]
T = 0.5
K = {K}
distance0 = 0.05
distance_seg = 0.05
"""
    out = tmp_path / "out"
    assert main(["couple", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    metrics = json.loads((out / "verdict.json").read_text())["metrics"]
    assert metrics["coupled_fraction"] == 1.0 and metrics["terminal_equal_fraction"] == 1.0
    rows = json.loads((out / "result.json").read_text())["rows"]
    assert all(row[1] == 0.5 and row[3] == 1 for row in rows)  # every pair closed at T


def test_simulate_csv_format(tmp_path):
    path = _write(tmp_path, BASE)
    out = tmp_path / "csv"
    assert main(["simulate", "--config", path, "--out", str(out), "--format", "csv"]) == 0
    lines = (out / "result.csv").read_text().splitlines()
    assert lines[0] == "path,x0,lifetime,sup_norm"
    assert len(lines) == 21


def test_cli_overrides_take_effect(tmp_path):
    path = _write(tmp_path, BASE)
    out = tmp_path / "ovr"
    assert main(["simulate", "--config", path, "--out", str(out),
                 "--paths", "5", "--seed", "9", "--step", "0.125"]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert len(payload["rows"]) == 5
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["base_seed"] == 9


def test_out_flag_with_percent_is_taken_literally(tmp_path):
    """A flag value is not interpolated: a '%' in --out names the directory."""
    out = tmp_path / "out_50%"
    assert main(["simulate", "--config", _write(tmp_path, BASE), "--out", str(out)]) == 0
    assert json.loads((out / "verdict.json").read_text())["verdict"] == "pass"


def test_file_value_reads_escaped_percent_once(tmp_path):
    """A file value is interpolated once, as configparser reads it: %% is %."""
    text = BASE.replace("[experiment]\n", f"[experiment]\noutput = {tmp_path}/o_50%%\n")
    assert main(["simulate", "--config", _write(tmp_path, text)]) == 0
    assert (tmp_path / "o_50%" / "verdict.json").exists()


def test_syntax_error_names_the_syntax_field(tmp_path, capsys):
    assert main(["simulate", "--config", _write(tmp_path, "n_paths = 3\n")]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: [syntax] File contains no section headers")


def _ini(sections: dict) -> str:
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for sec, keys in sections.items())


@pytest.mark.parametrize("flag, sec, key, value", [
    ("--seed", "experiment", "base_seed", "7"),
    ("--paths", "experiment", "n_paths", "30"),
    ("--step", "solver", "h", "0.125"),
    ("--format", "experiment", "format", "csv"),
    ("--workers", "experiment", "workers", "2"),
    ("--out", "experiment", "output", "{tmp}/out"),
], ids=["seed", "paths", "step", "format", "workers", "out"])
def test_flag_writes_what_the_file_value_writes(tmp_path, flag, sec, key, value):
    """A flag replaces the file's value of its key and gives the bytes, the
    resolved config in verdict.json included, of that value in the file."""
    value = value.format(tmp=tmp_path)
    out = tmp_path / "out"
    base = {
        "experiment": {"scenario": "simulate", "n_paths": "20", "base_seed": "1",
                       "format": "json", "workers": "1", "output": str(tmp_path / "other")},
        "model": {"name": "ou"},
        "measure": {"kind": "uniform", "r0": "0.5"},
        "solver": {"h": "0.0625", "t_end": "1.0"},
    }
    if key != "output":
        base["experiment"]["output"] = str(out)
    in_file = {s: dict(keys) for s, keys in base.items()}
    in_file[sec][key] = value
    fmt = in_file["experiment"]["format"]
    written = []
    for text, argv in ((_ini(in_file), []), (_ini(base), [flag, value])):
        assert main(["simulate", "--config", _write(tmp_path, text), *argv]) == 0
        written.append([(out / name).read_bytes() for name in ("verdict.json", f"result.{fmt}")])
    assert written[0] == written[1]
    config = json.loads(written[1][0])["config"]
    assert config.get(sec, {}).get(key, value) == value  # output and workers are left out


def test_worker_count_does_not_change_bytes(tmp_path, monkeypatch, pin_stored_row_chunk):
    """simulate spans two chunks of paths, and girsanov-check and gradient,
    with the estimator chunk patched to 64 paths, span four; each writes the
    same files with the same bytes on 1 and 2 workers."""
    monkeypatch.setattr(rng, "ESTIMATOR_CHUNK", 64)
    stored_chunks = pin_stored_row_chunk()
    cfg = BASE.replace("name = zero", "name = ou")
    for scenario, n_paths in (("simulate", 1100), ("girsanov-check", 200), ("gradient", 200)):
        path = _write(tmp_path, cfg.replace("n_paths = 20", f"n_paths = {n_paths}"))
        out1, out2 = tmp_path / scenario / "w1", tmp_path / scenario / "w2"
        assert main([scenario, "--config", path, "--out", str(out1), "--workers", "1"]) == 0
        assert main([scenario, "--config", path, "--out", str(out2), "--workers", "2"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert stored_chunks == [2, 2]  # the simulate runs


def test_couple_solves_u_once_per_run(tmp_path, monkeypatch, pin_stored_row_chunk):
    """u is solved once, before the chunks (two here) are spread over workers;
    with the transform in use, worker counts still give the same bytes."""
    text = """\
[experiment]
scenario = couple
n_paths = 1100
base_seed = 3
[model]
name = reference
[measure]
kind = uniform
r0 = 0.5
[solver]
h = 0.03125
t_end = 1.0
[coupling]
T = 0.5
K = 6.0
distance0 = 0.05
distance_seg = 0.05
"""
    path = _write(tmp_path, text)
    calls = []
    real_solve_u = cli.solve_u

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real_solve_u(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_u", counted)
    stored_chunks = pin_stored_row_chunk()
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["couple", "--config", path, "--out", str(out1), "--workers", "1"]) == 0
    assert len(calls) == 1
    assert main(["couple", "--config", path, "--out", str(out2), "--workers", "2"]) == 0
    assert len(calls) == 2  # the second run solved once more, in the parent
    assert stored_chunks == [2, 2]
    for name in ("result.json", "verdict.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert json.loads((out1 / "verdict.json").read_text())["metrics"]["coupled_fraction"] == 1.0


def test_harnack_chunks_match_one_batch_at_any_worker_count(
    tmp_path, monkeypatch, pin_stored_row_chunk
):
    """harnack maps its pairs over the STORED_ROW_CHUNK-pair chunks (two
    here) on the worker pool; its verdict has the bytes of either worker
    count and the metrics of one check_log_harnack batch."""
    text = """\
[experiment]
scenario = harnack
n_paths = 1100
base_seed = 3
[model]
name = reference
[measure]
kind = uniform
r0 = 0.5
[solver]
h = 0.03125
t_end = 1.0
[coupling]
T = 0.5
K = 4.0
distance0 = 0.05
distance_seg = 0.05
"""
    path = _write(tmp_path, text)
    stored_chunks = pin_stored_row_chunk()
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["harnack", "--config", path, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["harnack", "--config", path, "--out", str(out2), "--workers", "2"]) == 0
    assert stored_chunks == [2, 2]
    verdict = (out1 / "verdict.json").read_bytes()
    assert verdict == (out2 / "verdict.json").read_bytes()
    cfg = parse_config(text)
    nu, m, scfg, xi = cli._build(cfg)
    tm, cc, xi_t, eta_t = cli._coupling_setup(cfg, nu, m, scfg, xi)
    f, _ = make_functional("tanh0_pos", nu)
    monkeypatch.setattr(rng, "STORED_ROW_CHUNK", cfg.n_paths)  # one batch
    rep = check_log_harnack(tm, nu, f, xi_t, eta_t, cc.T, cc.h, cc.K, cfg.n_paths, cfg.base_seed)
    metrics = json.loads(verdict)["metrics"]
    assert metrics == cli._jsonable({
        "lhs": rep.lhs, "rhs": rep.rhs, "margin_sigma": rep.margin_sigma,
        "entropy": rep.entropy, "coupled_fraction": rep.coupled_fraction,
        "jensen_ok": rep.jensen_ok, "mean_R": rep.mean_R,
    })


def test_uncreatable_output_is_a_config_error_before_any_work(tmp_path, capsys, monkeypatch):
    """An --out below a regular file exits 3 with one line naming
    [experiment.output], and the scenario never runs."""
    calls = []
    monkeypatch.setitem(cli._HANDLERS, "simulate", lambda *args: calls.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = _write(tmp_path, BASE)
    assert main(["simulate", "--config", path, "--out", str(blocker / "sub")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: [experiment.output] ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert calls == []


def test_validate_scenario(tmp_path):
    text = """\
[experiment]
scenario = validate
n_paths = 1000
[model]
name = linear_delay
[measure]
kind = exponential
r0 = 1.0
lam = 1.0
[solver]
h = 0.0078125
t_end = 1.0
"""
    path = _write(tmp_path, text)
    out = tmp_path / "val"
    assert main(["validate", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["metrics"]["shift_domination"]["passed"] is True
    assert verdict["metrics"]["dini"]["passed"] is True


def test_validate_scenario_flags_bad_model(tmp_path):
    text = """\
[experiment]
scenario = validate
[model]
name = quadratic
[measure]
kind = uniform
r0 = 0.5
[solver]
h = 0.0625
t_end = 1.0
"""
    path = _write(tmp_path, text)
    out = tmp_path / "bad"
    assert main(["validate", "--config", path, "--out", str(out)]) == 1
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "fail"
    assert verdict["metrics"]["assumptions"]["a3"] is False


def test_harnack_equal_starts_jensen_only(tmp_path):
    text = """\
[experiment]
scenario = harnack
n_paths = 64
[model]
name = ou
[measure]
kind = uniform
r0 = 0.5
[solver]
h = 0.03125
t_end = 1.0
[coupling]
T = 0.5
K = 2.0
distance0 = 0.0
distance_seg = 0.0
"""
    path = _write(tmp_path, text)
    out = tmp_path / "har"
    assert main(["harnack", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["metrics"]["jensen_ok"] is True
    assert verdict["metrics"]["entropy"] == 0.0


@pytest.mark.parametrize("scenario, code, verdict", [
    ("couple", 1, "fail"),
    ("harnack", 2, "inconclusive"),
])
def test_a_pair_that_fails_apart_is_not_a_pass(tmp_path, monkeypatch, scenario, code, verdict):
    """One pair's first increment is infinite, so its X overflows on the
    first step and the pair is frozen apart as failed.  couple fails such a
    run on its coupled fraction; harnack, whose left side reads X's terminal
    segment as Y's, calls it inconclusive before it forms any statistic."""
    from delaysde import coupling

    real = coupling.path_increments

    def one_infinite(*args):
        dW = real(*args)
        dW[0, 0] = np.inf
        return dW

    monkeypatch.setattr(coupling, "path_increments", one_infinite)
    text = f"""\
[experiment]
scenario = {scenario}
n_paths = 64
base_seed = 11
[model]
name = reference
[measure]
kind = uniform
r0 = 0.5
[solver]
h = 0.03125
t_end = 1.0
[coupling]
T = 0.5
K = 4.0
distance0 = 0.1
"""
    out = tmp_path / scenario
    with warnings.catch_warnings():  # the NaN and inf statistics of the failed pair warn nowhere
        warnings.simplefilter("error", RuntimeWarning)
        assert main([scenario, "--config", _write(tmp_path, text), "--out", str(out)]) == code
    result = json.loads((out / "verdict.json").read_text())
    assert result["verdict"] == verdict
    assert result["metrics"]["coupled_fraction"] == 63 / 64
    if scenario == "harnack":
        assert result["metrics"]["lhs"] is None and result["metrics"]["mean_R"] is None
    else:  # the weights of an infinite log R are not numbers
        for key in ("mean_R", "stderr_R", "ess", "entropy_selfnorm"):
            assert result["metrics"][key] is None, key


def test_couple_scenario_martingale(tmp_path):
    text = """\
[experiment]
scenario = couple
n_paths = 96
[model]
name = linear_delay
[measure]
kind = exponential
r0 = 1.0
lam = 1.0
[solver]
h = 0.0078125
t_end = 1.0
[coupling]
T = 0.5
K = 6.0
distance0 = 0.05
distance_seg = 0.05
"""
    path = _write(tmp_path, text)
    out = tmp_path / "cpl"
    assert main(["couple", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["metrics"]["coupled_fraction"] == 1.0


def test_bihari_scenario(tmp_path):
    text = """\
[experiment]
scenario = bihari
n_paths = 64
[model]
name = linear_delay
[measure]
kind = exponential
r0 = 1.0
lam = 1.0
[solver]
h = 0.0078125
t_end = 1.0
"""
    path = _write(tmp_path, text)
    out = tmp_path / "bih"
    assert main(["bihari", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["metrics"]["pass_fraction"] == 1.0


@pytest.mark.parametrize("kind", ["exponential", "atoms"])
def test_bihari_chunks_match_one_batch_at_any_worker_count(
    tmp_path, monkeypatch, pin_stored_row_chunk, kind
):
    """bihari maps its paths over the STORED_ROW_CHUNK-path chunks (two here)
    on the worker pool; its verdict has the bytes of either worker count and the
    metrics of one apriori_check batch.  The atoms measure streams its
    averages in blocked products."""
    measure = "lam = 1.0" if kind == "exponential" else "weights = " + ",".join(
        ["0.03", "0.01", "0.02", "0.04"] * 4
    )
    text = f"""\
[experiment]
scenario = bihari
n_paths = 1100
base_seed = 3
[model]
name = reference
[measure]
kind = {kind}
r0 = 0.5
{measure}
[solver]
h = 0.03125
t_end = 1.0
[bihari]
T = 0.75
"""
    path = _write(tmp_path, text)
    stored_chunks = pin_stored_row_chunk()
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["bihari", "--config", path, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["bihari", "--config", path, "--out", str(out2), "--workers", "2"]) == 0
    assert stored_chunks == [2, 2]
    verdict = (out1 / "verdict.json").read_bytes()
    assert verdict == (out2 / "verdict.json").read_bytes()
    cfg = parse_config(text)
    nu, m, scfg, xi = cli._build(cfg)
    monkeypatch.setattr(rng, "STORED_ROW_CHUNK", cfg.n_paths)  # one batch
    rep = apriori_check(m, nu, xi, scfg, 0.75, cfg.n_paths, cfg.base_seed)
    assert json.loads(verdict)["metrics"] == cli._jsonable({
        "pass_fraction": rep.pass_fraction, "K1": rep.K1, "K2": rep.K2,
        "alpha_mean": rep.alpha_mean, "worst_margin": rep.worst_margin,
    })


def test_gradient_scenario_ou_oracle(tmp_path):
    text = """\
[experiment]
scenario = gradient
n_paths = 256
[model]
name = ou
[measure]
kind = uniform
r0 = 0.5
[solver]
h = 0.03125
t_end = 1.0
[gradient]
T = 0.5
eps_fd = 0.01
"""
    path = _write(tmp_path, text)
    out = tmp_path / "grd"
    assert main(["gradient", "--config", path, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert abs(verdict["metrics"]["D"] - verdict["metrics"]["oracle"]) < 1e-10


LARGEST_SEED = 2**64 - 2  # girsanov-check keys base_seed + 1 < 2^64


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_largest_seed_runs_every_scenario(tmp_path, scenario):
    """The largest seed parse_config accepts keys every generator a scenario
    draws from: each run writes its verdict."""
    text = """\
[experiment]
n_paths = 8
[model]
name = reference
[measure]
kind = uniform
r0 = 0.5
[solver]
h = 0.03125
t_end = 0.5
[coupling]
T = 0.5
K = 6.0
distance0 = 0.1
[girsanov]
T = 0.5
[gradient]
T = 0.5
[zvonkin]
lams = 4,8
T = 0.5
n_x = 41
n_t = 9
"""
    out = tmp_path / "out"
    argv = [scenario, "--config", _write(tmp_path, text), "--out", str(out),
            "--seed", str(LARGEST_SEED)]
    assert main(argv) in (0, 1, 2)
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["base_seed"] == LARGEST_SEED


def test_simulate_leaves_integrate_optimize_and_sparse_unloaded(tmp_path):
    """scipy.integrate and scipy.optimize serve only the Bihari bound, and
    scipy.sparse only the u solve: a fresh interpreter that imports the
    package and runs a simulate loads none of them."""
    src = Path(cli.__file__).resolve().parents[1]
    path = _write(tmp_path, BASE.replace("name = zero", "name = ou"))
    code = (
        "import sys, delaysde, delaysde.cli\n"
        f"assert delaysde.cli.main(['simulate', '--config', {path!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
