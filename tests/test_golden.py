"""Byte-exact CLI outputs on two small committed instances.

The files in ``tests/golden`` were written by the CLI with ``tests/golden``
as the working directory, so the echoed instance path is relative. The
``eval_sv*`` and ``sample*`` files come from ``demo.e3lin2`` (n=12, m=14,
supports up to q=9), written before the parity kernel replaced the
per-clause loops; the ``entangled_*`` files come from ``entangled.e3lin2``
(``gen -n 24 -m 36 -D 5 --seed 1``: every clause's support entangled, up to
q=18), written before the neighborhood histograms moved onto the parity
grid. The ``*_scan*``, ``*_mixed*`` and ``*_typical*`` files, and
``ensemble10.e3lin2`` (``gen -n 10 -m 10 -D 3 --seed 1``, all 2^10 sign
vectors), were written before the evaluation plan replaced the per-clause
loop of scans and sign ensembles; the ``--q-max 12`` ones mix enumerated
and Monte Carlo clauses. ``demo_scan.csv``, the ``bounds_*`` files
(``bounds -m 1000 -D 4`` and ``bounds -m 7 -D 1``, where the asymptotic
bound is null and its CSV cell empty) and ``gen_demo.json`` (the stdout of
the ``gen`` call that wrote ``demo.e3lin2``) were written before the records
and CSV tables came from the report dataclasses; with them every command
and ``--format`` has a golden. ``demo_typical_mixed.json`` (``--q-max 8``,
so some clauses of the Monte Carlo ensemble take Monte Carlo terms) was
written before the topology became a cached property of the instance.
``state18.e3lin2`` (``gen -n 18 -m 24 -D 3 --seed 1``) has more qubits than
one mixer tile, so its statevector runs the tiled mixer's high-qubit pass;
its ``state18_*`` files were written before the mixer was tiled. A change
that moves any emitted digit, including the 1e-16 ``difference`` of the
statevector comparison, fails here. So does a change to ``gen``'s draws: the
four instances are written again by the ``gen`` calls above (``demo.e3lin2``
by ``gen -n 12 -m 14 -D 3 --seed 7``) and compared byte for byte. Every JSON
golden also validates against ``docs/cli_schema.json``, with its keys in the
schema's order. The outputs hold at any BLAS thread count; the ``eval_sv``
commands run once more in a fresh process with OpenBLAS on one thread, where
a dot split across threads would round differently. One golden of each
command also runs as a ``python -m qaoa_e3lin2.cli`` process of its own,
which freezes the garbage collector as it exits, so a lost flush fails here.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qaoa_e3lin2 import cli

from conftest import fresh_env, run_cli
from test_cli import SCHEMA, validate

GOLDEN = Path(__file__).parent / "golden"
SAMPLE = ["sample", "demo.e3lin2", "--gamma", "0.2", "--samples", "200"]
ENTANGLED_EVAL = ["eval", "entangled.e3lin2", "--gamma", "0.2"]
ENSEMBLE10_TYPICAL = ["typical", "ensemble10.e3lin2", "--trials", "0", "--gamma", "0.3"]

CASES = {
    "eval_sv.json": ["eval", "demo.e3lin2", "--gamma", "0.2", "--compare-statevector"],
    "eval_sv_neg.json": ["eval", "demo.e3lin2", "--gamma", "-0.55", "--compare-statevector"],
    "sample_seed0.json": SAMPLE + ["--seed", "0"],
    "sample_seed0.csv": SAMPLE + ["--seed", "0", "--format", "csv"],
    "sample_seed5.json": SAMPLE + ["--seed", "5"],
    "sample_seed5.csv": SAMPLE + ["--seed", "5", "--format", "csv"],
    "state18_eval_sv.json": ["eval", "state18.e3lin2", "--gamma", "0.2", "--compare-statevector"],
    "state18_sample.json": ["sample", "state18.e3lin2", "--gamma", "0.2", "--samples", "2000"],
    "entangled_eval.json": ENTANGLED_EVAL,
    "entangled_eval.csv": ENTANGLED_EVAL + ["--format", "csv"],
    "entangled_eval_mc.json": [
        "eval", "entangled.e3lin2", "--gamma", "-0.45", "--mode", "mc", "--mc-samples", "2000", "--seed", "3",
    ],
    "entangled_scan.json": ["scan", "entangled.e3lin2", "--mode", "exact"],
    "demo_scan.json": ["scan", "demo.e3lin2"],
    "demo_scan.csv": ["scan", "demo.e3lin2", "--format", "csv"],
    "entangled_scan_mixed.json": [
        "scan", "entangled.e3lin2", "--q-max", "12", "--mc-samples", "2000", "--seed", "4",
    ],
    "entangled_eval_mixed.csv": [
        "eval", "entangled.e3lin2", "--gamma", "0.3", "--q-max", "12", "--mc-samples", "2000",
        "--seed", "4", "--format", "csv",
    ],
    "ensemble10_typical.json": ENSEMBLE10_TYPICAL,
    "ensemble10_typical.csv": ENSEMBLE10_TYPICAL + ["--format", "csv"],
    "entangled_typical.json": ["typical", "entangled.e3lin2", "--trials", "20", "--seed", "4"],
    "demo_typical.json": ["typical", "demo.e3lin2", "--trials", "200", "--seed", "1"],
    "demo_typical_mixed.json": [
        "typical", "demo.e3lin2", "--trials", "3", "--seed", "3", "--q-max", "8",
    ],
    "bounds_m1000_d4.json": ["bounds", "-m", "1000", "-D", "4"],
    "bounds_m1000_d4.csv": ["bounds", "-m", "1000", "-D", "4", "--format", "csv"],
    "bounds_m7_d1.json": ["bounds", "-m", "7", "-D", "1"],
    "bounds_m7_d1.csv": ["bounds", "-m", "7", "-D", "1", "--format", "csv"],
}
#: The ``gen`` calls that wrote the golden instances; each runs in an empty
#: directory and writes the instance it echoes.
GENS = {
    "demo.e3lin2": ["gen", "-n", "12", "-m", "14", "-D", "3", "--seed", "7", "-o", "demo.e3lin2"],
    "ensemble10.e3lin2": ["gen", "-n", "10", "-m", "10", "-D", "3", "--seed", "1", "-o", "ensemble10.e3lin2"],
    "entangled.e3lin2": ["gen", "-n", "24", "-m", "36", "-D", "5", "--seed", "1", "-o", "entangled.e3lin2"],
    "state18.e3lin2": ["gen", "-n", "18", "-m", "24", "-D", "3", "--seed", "1", "-o", "state18.e3lin2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    result = run_cli(CASES[name])
    assert result.exit_code == 0, result.output
    assert result.output == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN.glob("*.json")))
def test_golden_json_follows_the_schema(name):
    payload = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    validate(payload)
    properties = SCHEMA["$defs"][payload["command"]]["properties"]
    assert list(payload) == [key for key in properties if key in payload]


@pytest.mark.parametrize("name", sorted(GENS))
def test_gen_writes_the_golden_instance(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_cli(GENS[name])
    assert result.exit_code == 0, result.output
    if name == "demo.e3lin2":
        assert result.output == (GOLDEN / "gen_demo.json").read_text(encoding="utf-8")
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(name for name in CASES if "eval_sv" in name))
def test_statevector_outputs_hold_on_one_blas_thread(name):
    """The expectation's sums do not depend on how many threads BLAS runs."""
    result = subprocess.run(
        [sys.executable, "-m", "qaoa_e3lin2.cli", *CASES[name]],
        cwd=GOLDEN, env=fresh_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, timeout=120, check=True,
    )
    assert result.stdout == (GOLDEN / name).read_bytes()


#: One golden of each command, run again below as a process of its own.
EXITS = {
    "bounds": "bounds_m1000_d4.json",
    "eval": "entangled_eval.json",
    "gen": "demo.e3lin2",
    "sample": "sample_seed5.csv",
    "scan": "demo_scan.csv",
    "typical": "ensemble10_typical.json",
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_a_command_process_exits_with_its_golden_flushed(command, tmp_path):
    """``python -m`` freezes the collector at exit; what the process prints and writes is whole."""
    name = EXITS[command]
    argv, cwd = (GENS[name], tmp_path) if command == "gen" else (CASES[name], GOLDEN)
    result = subprocess.run(
        [sys.executable, "-m", "qaoa_e3lin2.cli", *argv],
        cwd=cwd, env=fresh_env(), capture_output=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, b"")
    if command == "gen":
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
        name = "gen_demo.json"
    assert result.stdout == (GOLDEN / name).read_bytes()


def _command_and_format(argv):
    return argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "json"


def test_every_command_and_format_has_a_golden():
    offered = set()
    for name in cli._COMMANDS:
        formats = re.search(r"--format \[([a-z|]+)\]", run_cli([name, "--help"]).stdout)
        offered |= {(name, fmt) for fmt in (formats[1].split("|") if formats else ["json"])}
    covered = {_command_and_format(argv) for argv in [*CASES.values(), *GENS.values()]}
    assert offered - covered == set()
