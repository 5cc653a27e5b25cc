"""Byte-exact CLI outputs on a small committed instance.

The files in ``tests/golden`` were written by the CLI on
``tests/golden/demo.e3lin2`` (n=12, m=14) before the parity kernel replaced
the per-clause loops, with ``tests/golden`` as the working directory so the
echoed instance path is the relative ``demo.e3lin2``. A change that moves any
emitted digit, including the 1e-16 ``difference`` of the statevector
comparison, fails here.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from qaoa_e3lin2.cli import main

GOLDEN = Path(__file__).parent / "golden"
SAMPLE = ["sample", "demo.e3lin2", "--gamma", "0.2", "--samples", "200"]

CASES = {
    "eval_sv.json": ["eval", "demo.e3lin2", "--gamma", "0.2", "--compare-statevector"],
    "eval_sv_neg.json": ["eval", "demo.e3lin2", "--gamma", "-0.55", "--compare-statevector"],
    "sample_seed0.json": SAMPLE + ["--seed", "0"],
    "sample_seed0.csv": SAMPLE + ["--seed", "0", "--format", "csv"],
    "sample_seed5.json": SAMPLE + ["--seed", "5"],
    "sample_seed5.csv": SAMPLE + ["--seed", "5", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    result = CliRunner().invoke(main, CASES[name])
    assert result.exit_code == 0, result.output
    assert result.output == (GOLDEN / name).read_text(encoding="utf-8")
