"""The experiment scripts run end to end on small inputs."""

import importlib.util
from pathlib import Path

from qaoa_e3lin2.instance import generate_random, serialize

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ensemble_sweep(capsys):
    assert load("ensemble_sweep").main(["--trials", "20", "--points", "3"]) == 0
    out = capsys.readouterr().out
    assert "mc_mean" in out and "lower bound peaks" in out


def test_grid_scan_experiment(capsys, tmp_path):
    rows = tmp_path / "rows.csv"
    args = ["--d-values", "2", "--seeds", "1", "--csv", str(rows)]
    assert load("grid_scan_experiment").main(args) == 0
    assert "best W per equation" in capsys.readouterr().out
    assert rows.read_text().splitlines()[0].startswith("D,n,m,seed")


def test_time_statevector(capsys, tmp_path):
    path = tmp_path / "small.e3lin2"
    path.write_text(serialize(generate_random(n=8, m=6, d_bound=2, seed=1)))
    assert load("time_statevector").main([str(path), "--gamma", "0.3", "--repeat", "2", "--shots", "100"]) == 0
    out = capsys.readouterr().out
    for phase in ("uniform_state", "apply_cost_phase", "apply_mixer", "expectation", "sample"):
        assert phase in out
    header, *rows = out.splitlines()[2:]
    assert header.split() == ["phase", "median_s", "min_s", "peak_B/amp"]
    peaks = {row.split()[0]: float(row.split()[3]) for row in rows}
    assert list(peaks) == ["uniform_state", "apply_cost_phase", "apply_mixer", "prepare", "expectation", "sample"]
    # the phased and the prepared state are new 16-byte amplitudes
    assert peaks["apply_cost_phase"] >= 16 and peaks["prepare"] >= 16
