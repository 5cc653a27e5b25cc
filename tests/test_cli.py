import dataclasses
import json
import math
import os
import pathlib
import stat
import subprocess
import sys

import jsonschema
import pytest

from qaoa_e3lin2 import cli, statevector
from qaoa_e3lin2.analytic import ClauseTerm, ExpectationReport
from qaoa_e3lin2.instance import parse
from qaoa_e3lin2.sampler import SampleReport, recommended_samples
from qaoa_e3lin2.schedule import AngleSchedule, GuaranteeReport, ScanPoint
from qaoa_e3lin2.typical import EnsembleReport

from conftest import fresh_env, run_cli
from test_lazy_exports import fresh

SCHEMA_PATH = pathlib.Path(__file__).resolve().parents[1] / "docs" / "cli_schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def validate(payload):
    jsonschema.validate(payload, SCHEMA, cls=jsonschema.Draft202012Validator)


def fields(cls, drop=()):
    return [f.name for f in dataclasses.fields(cls) if f.name not in drop]


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "small.e3lin2"
    result = run_cli(["gen", "-n", "10", "-m", "8", "-D", "2", "--seed", "3", "-o", str(path)])
    assert result.exit_code == 0, result.output
    return str(path)


class TestSchemaDocument:
    def test_schema_is_well_formed(self):
        jsonschema.Draft202012Validator.check_schema(SCHEMA)

    def test_report_payloads_are_their_dataclass_fields_in_order(self):
        # a field added to a report reaches the payload, so it must reach the schema too
        defs = SCHEMA["$defs"]
        scan = defs["scan"]["properties"]
        header = ["command", "instance"]
        angles = ["n", "m", "d_bound", "gamma", "state_gamma"]  # sample renames the report's gamma
        expected = {
            "eval": (header + fields(ExpectationReport) + ["statevector"], defs["eval"]),
            "typical": (header + fields(EnsembleReport), defs["typical"]),
            "sample": (
                header + angles + fields(SampleReport, drop={"gamma", "analytic_gamma"}),
                defs["sample"],
            ),
            "clause_term": (fields(ClauseTerm), defs["clause_term"]),
            "guarantee": (fields(GuaranteeReport), defs["guarantee"]),
            "schedule": (fields(AngleSchedule), scan["schedule"]),
            "curve": (fields(ScanPoint), scan["curve"]["items"]),
        }
        for name, (keys, definition) in expected.items():
            assert list(definition["properties"]) == keys, name
            assert set(keys) - set(definition["required"]) <= {"statevector"}, name


class TestGen:
    def test_writes_parseable_file(self, tmp_path):
        path = tmp_path / "inst.e3lin2"
        result = run_cli(["gen", "-n", "9", "-m", "7", "-D", "2", "--seed", "5", "-o", str(path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        validate(payload)
        inst = parse(path.read_text())
        assert inst.n == payload["n"] == 9
        assert inst.m == payload["m"] == 7
        assert payload["derived_d_bound"] <= payload["requested_d_bound"]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["gen", "-n", "9", "-m", "7", "-D", "2", "--seed", "5"]
        p1, p2 = tmp_path / "a.e3lin2", tmp_path / "b.e3lin2"
        out1 = run_cli(args + ["-o", str(p1)]).output
        out2 = run_cli(args + ["-o", str(p2)]).output
        assert p1.read_bytes() == p2.read_bytes()
        # stdout echoes differ only in the path they report
        assert out1.replace(str(p1), "X") == out2.replace(str(p2), "X")

    def test_sign_mode_all_zero(self, tmp_path):
        path = tmp_path / "z.e3lin2"
        result = run_cli(
            ["gen", "-n", "8", "-m", "5", "-D", "2", "--sign-mode", "all-zero-rhs", "-o", str(path)]
        )
        assert result.exit_code == 0
        assert all(cl.rhs == 0 for cl in parse(path.read_text()).clauses)

    def test_infeasible_exits_two(self, tmp_path):
        result = run_cli(["gen", "-n", "10", "-m", "40", "-D", "1", "-o", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("n, m, d", [("4294967297", "1", "0"), (str(10**23), "2", "1")])
    def test_an_n_above_2_to_the_32_exits_two_at_once(self, tmp_path, n, m, d):
        # in a new interpreter with a timeout, so that a draw loop that never
        # returns fails the test instead of holding the suite
        result = subprocess.run(
            [sys.executable, "-m", "qaoa_e3lin2.cli", "gen", "-n", n, "-m", m, "-D", d, "-o", "x"],
            cwd=tmp_path, env=fresh_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.splitlines()[-1] == f"Error: n must be at most 2**32 = 4294967296, got {n}"
        assert not (tmp_path / "x").exists()


class TestEval:
    def test_json_payload(self, instance_file):
        result = run_cli(["eval", instance_file, "--gamma", "0.3"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        validate(payload)
        assert payload["m"] == len(payload["terms"])
        total = math.fsum(t["value"] for t in payload["terms"])
        assert payload["total"] == pytest.approx(total, abs=1e-9)

    def test_zero_angle(self, instance_file):
        result = run_cli(["eval", instance_file, "--gamma", "0"])
        payload = json.loads(result.output)
        assert payload["total"] == 0.0

    def test_statevector_comparison(self, instance_file):
        result = run_cli(["eval", instance_file, "--gamma", "0.4", "--compare-statevector"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        validate(payload)
        sv = payload["statevector"]
        assert sv["state_gamma"] == -0.4
        assert sv["beta"] == pytest.approx(math.pi / 4, rel=1e-11)
        assert sv["difference"] <= 1e-9

    def test_csv_with_statevector_comparison_exits_two_before_preparing(
        self, instance_file, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a state was prepared")

        monkeypatch.setattr(statevector, "prepare", refuse)
        result = run_cli(
            ["eval", instance_file, "--gamma", "0.3", "--compare-statevector", "--format", "csv"]
        )
        assert result.exit_code == 2
        assert "--compare-statevector" in result.output and "--format" in result.output

    def test_csv_body(self, instance_file):
        result = run_cli(["eval", instance_file, "--gamma", "0.3", "--format", "csv"])
        lines = result.output.strip().split("\n")
        assert lines[0] == "clause_index,value,method,stderr"
        assert len(lines) == 1 + 8

    @pytest.mark.parametrize("argv", [["eval", "--gamma", "0.3"], ["scan"]], ids=["eval", "scan"])
    def test_json_never_builds_the_csv_table(self, instance_file, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a CSV table was built")

        monkeypatch.setattr(cli, "_table", refuse)
        result = run_cli([argv[0], instance_file, *argv[1:]])
        assert result.exit_code == 0, result.output
        validate(json.loads(result.output))

    def test_missing_file_exits_two(self):
        result = run_cli(["eval", "/nonexistent.e3lin2", "--gamma", "0.3"])
        assert result.exit_code == 2

    def test_malformed_file_exits_two_naming_the_line(self, tmp_path):
        path = tmp_path / "bad.e3lin2"
        path.write_text("e3lin2 4 1\n0 1 x 0\n", encoding="utf-8")
        result = run_cli(["eval", str(path), "--gamma", "0.3"])
        assert result.exit_code == 2
        assert result.output.splitlines()[-1] == f"Error: {path}: bad token in '0 1 x 0', line 2"

    def test_exact_mode_with_tight_cap_exits_two(self, instance_file):
        result = run_cli(["eval", instance_file, "--gamma", "0.3", "--mode", "exact", "--q-max", "0"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_gamma_exits_two(self, instance_file, gamma):
        result = run_cli(["eval", instance_file, "--gamma", gamma])
        assert result.exit_code == 2
        assert "Invalid value for '--gamma'" in result.output

    def test_mc_mode_is_seeded(self, instance_file):
        args = ["eval", instance_file, "--gamma", "0.3", "--mode", "mc",
                "--mc-samples", "400", "--seed", "7"]
        assert run_cli(args).output == run_cli(args).output


class TestScan:
    def test_json_payload(self, instance_file):
        result = run_cli(["scan", instance_file])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        validate(payload)
        k = payload["schedule"]["k"]
        assert len(payload["curve"]) == k + 1
        assert len(payload["schedule"]["gammas"]) == k + 1
        best = payload["best"]
        assert best["value"] >= 0.0
        assert best["value"] == pytest.approx(
            max(abs(p["value"]) for p in payload["curve"]), abs=1e-12
        )
        assert payload["guarantee"]["grid_bound_vacuous"] is True
        assert payload["guarantee"]["remainder_per_clause"] > 0.0

    def test_csv_body(self, instance_file):
        result = run_cli(["scan", instance_file, "--format", "csv"])
        lines = result.output.strip().split("\n")
        assert lines[0] == "r,gamma,value,stderr"
        payload = json.loads(run_cli(["scan", instance_file]).output)
        assert len(lines) == 2 + payload["schedule"]["k"]


class TestSample:
    def test_auto_samples(self, instance_file):
        result = run_cli(["sample", instance_file, "--gamma", "0.3"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        validate(payload)
        assert payload["samples"] == recommended_samples(8)
        assert payload["state_gamma"] == -payload["gamma"]
        assert payload["beta"] == pytest.approx(math.pi / 4, rel=1e-11)
        assert set(payload["best_string"]) <= {"0", "1"}
        assert len(payload["best_string"]) == payload["n"]

    def test_auto_samples_refused_on_one_clause(self, tmp_path):
        path = tmp_path / "one.e3lin2"
        path.write_text("e3lin2 3 1\n0 1 2 1\n")
        result = run_cli(["sample", str(path), "--gamma", "0.2"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "'--samples'" in result.output and "explicit count" in result.output
        explicit = run_cli(["sample", str(path), "--gamma", "0.2", "--samples", "5"])
        assert explicit.exit_code == 0, explicit.output
        assert json.loads(explicit.output)["samples"] == 5

    def test_explicit_samples_and_determinism(self, instance_file):
        args = ["sample", instance_file, "--gamma", "0.25", "--samples", "64", "--seed", "2"]
        out1 = run_cli(args).output
        out2 = run_cli(args).output
        assert out1 == out2
        assert json.loads(out1)["samples"] == 64

    def test_csv_single_row(self, instance_file):
        result = run_cli(["sample", instance_file, "--gamma", "0.3", "--format", "csv"])
        lines = result.output.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("gamma,state_gamma,beta,samples")


class TestTypical:
    def test_exhaustive_default(self, instance_file):
        result = run_cli(["typical", instance_file])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        validate(payload)
        assert payload["method"] == "exhaustive"
        assert payload["trials"] == 2 ** payload["m"]
        assert payload["stderr"] == 0.0
        d = payload["d_bound"]
        assert payload["gamma"] == pytest.approx(1.0 / math.sqrt(3.0 * d), rel=1e-11)
        assert payload["mean_w"] == pytest.approx(payload["closed_form_mean"], abs=1e-9)

    def test_explicit_gamma_mc(self, instance_file):
        args = ["typical", instance_file, "--gamma", "0.35", "--trials", "60", "--seed", "4"]
        out1 = run_cli(args).output
        out2 = run_cli(args).output
        assert out1 == out2
        payload = json.loads(out1)
        validate(payload)
        assert payload["method"] == "monte-carlo"
        assert payload["trials"] == 60
        assert payload["gamma"] == 0.35

    def test_large_m_exhaustive_exits_two(self, tmp_path):
        path = tmp_path / "big.e3lin2"
        gen = run_cli(["gen", "-n", "30", "-m", "24", "-D", "2", "-o", str(path)])
        assert gen.exit_code == 0
        result = run_cli(["typical", str(path), "--trials", "0"])
        assert result.exit_code == 2

    def test_exhaustive_echoes_the_seed(self, instance_file):
        args = ["typical", instance_file, "--trials", "0", "--seed", "5"]
        assert json.loads(run_cli(args).output)["seed"] == 5
        header, row = run_cli(args + ["--format", "csv"]).output.splitlines()
        assert dict(zip(header.split(","), row.split(",")))["seed"] == "5"

    def test_csv_single_row(self, instance_file):
        result = run_cli(["typical", instance_file, "--format", "csv"])
        lines = result.output.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("m,d_bound,gamma,method")

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("trials", ["0", "20"])
    def test_non_finite_gamma_exits_two(self, instance_file, gamma, trials):
        args = ["typical", instance_file, "--gamma", gamma, "--trials", trials]
        result = run_cli(args)
        assert result.exit_code == 2
        assert f"Invalid value for '--gamma': '{gamma}' is not a finite number" in result.output


class TestBounds:
    def test_json_payload(self):
        result = run_cli(["bounds", "-m", "1000", "-D", "4"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        validate(payload)
        assert payload["k"] == 7
        wc = payload["worst_case"]
        assert wc["grid_bound"] == pytest.approx(-383.849060429, rel=1e-9)
        assert wc["grid_bound_vacuous"] is True
        assert payload["typical"]["advantage"] == pytest.approx(87.5451599142, rel=1e-9)
        assert payload["typical"]["predicted_satisfied"] == pytest.approx(
            587.545159914, rel=1e-9
        )

    def test_d_one_has_null_asymptotic(self):
        payload = json.loads(run_cli(["bounds", "-m", "100", "-D", "1"]).output)
        validate(payload)
        assert payload["worst_case"]["asymptotic_bound"] is None

    def test_csv_empty_cell_for_null(self):
        result = run_cli(["bounds", "-m", "100", "-D", "1", "--format", "csv"])
        lines = result.output.strip().split("\n")
        assert len(lines) == 2
        cells = lines[1].split(",")
        header = lines[0].split(",")
        assert cells[header.index("asymptotic_bound")] == ""

    def test_rejects_bad_family(self):
        assert run_cli(["bounds", "-m", "0", "-D", "3"]).exit_code == 2
        assert run_cli(["bounds", "-m", "10", "-D", "0"]).exit_code == 2


class TestFileOutput:
    def test_output_flag_writes_atomically(self, instance_file, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(["eval", instance_file, "--gamma", "0.3", "-o", str(out)])
        assert result.exit_code == 0
        assert result.output.strip() == f"wrote {out}"
        payload = json.loads(out.read_text())
        validate(payload)
        # no stray temp files left behind
        assert list(tmp_path.glob(".tmp-*")) == []

    def test_file_rerun_is_byte_identical(self, instance_file, tmp_path):
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli(["scan", instance_file, "-o", str(o1)])
        run_cli(["scan", instance_file, "-o", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_honour_the_umask(self, instance_file, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            run_cli(["gen", "-n", "5", "-m", "3", "-D", "1", "-o", str(tmp_path / "g")])
            run_cli(["scan", instance_file, "-o", str(tmp_path / "s")])
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "g").stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "s").stat().st_mode) == mode

    @pytest.mark.parametrize("command", ["gen", "eval"])
    def test_missing_directory_exits_two_naming_the_path(self, instance_file, tmp_path, command):
        out = tmp_path / "nodir" / "out"
        args = {
            "gen": ["gen", "-n", "5", "-m", "3", "-D", "1", "-o", str(out)],
            "eval": ["eval", instance_file, "--gamma", "0.3", "-o", str(out)],
        }[command]
        result = run_cli(args)
        assert result.exit_code == 2
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ") and str(out) in lines[0]
        assert list(tmp_path.rglob(".tmp-*")) == []


class TestArgumentRanges:
    @pytest.mark.parametrize(
        "args, option",
        [
            (["gen", "-n", "9", "-m", "7", "-D", "2", "--seed", "-1", "-o", "x.e3lin2"], "--seed"),
            (["eval", "{path}", "--gamma", "0.3", "--seed", "-1"], "--seed"),
            (["eval", "{path}", "--gamma", "0.3", "--mc-samples", "0"], "--mc-samples"),
            (["scan", "{path}", "--seed", "-1"], "--seed"),
            (["scan", "{path}", "--mode", "mc", "--seed", "-1"], "--seed"),
            (["scan", "{path}", "--mc-samples", "0"], "--mc-samples"),
            (["sample", "{path}", "--gamma", "0.3", "--seed", "-1"], "--seed"),
            (["typical", "{path}", "--seed", "-2"], "--seed"),
            (["sample", "{path}", "--gamma", "0.3", "--samples", "abc"], "--samples"),
            (["sample", "{path}", "--gamma", "0.3", "--samples", "0"], "--samples"),
            (["sample", "{path}", "--gamma", "0.3", "--samples", "-3"], "--samples"),
            (["sample", "{path}", "--gamma", "nan", "--samples", "5"], "--gamma"),
            (["sample", "{path}", "--gamma", "0.2", "--beta", "inf"], "--beta"),
            (["typical", "{path}", "--trials", "1"], "--trials"),
            (["typical", "{path}", "--trials", "-4"], "--trials"),
            (
                ["eval", "{path}", "--gamma", "0.3", "--compare-statevector", "--n-max", "-1"],
                "--n-max",
            ),
            (["sample", "{path}", "--gamma", "0.3", "--n-max", "0"], "--n-max"),
            (["eval", "{path}", "--gamma", "0.3", "--q-max", "-1"], "--q-max"),
            (["scan", "{path}", "--q-max", "-1"], "--q-max"),
            (["typical", "{path}", "--q-max", "-1"], "--q-max"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_out_of_range_exits_two_naming_the_option(self, instance_file, tmp_path, monkeypatch, args, option):
        monkeypatch.chdir(tmp_path)
        result = run_cli([a.format(path=instance_file) for a in args])
        assert result.exit_code == 2
        assert f"'{option}'" in result.output


class TestHelp:
    @pytest.mark.parametrize(
        "command, options",
        [
            ("gen", ["--d-bound", "--sign-mode", "--seed", "--output"]),
            (
                "eval",
                ["--gamma", "--mode", "--mc-samples", "--seed", "--q-max",
                 "--compare-statevector", "--n-max", "--format", "--output"],
            ),
            ("scan", ["--mode", "--mc-samples", "--seed", "--q-max", "--format", "--output"]),
            ("sample", ["--gamma", "--beta", "--samples", "--seed", "--n-max", "--format", "--output"]),
            ("typical", ["--gamma", "--trials", "--seed", "--q-max", "--format", "--output"]),
            ("bounds", ["--d-bound", "--format", "--output"]),
        ],
    )
    def test_help_names_every_long_option(self, command, options):
        # without the instance path or the required options it would otherwise refuse
        result = run_cli([command, "--help"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert [option for option in options if option not in result.stdout] == []

    def test_the_group_help_names_every_command(self):
        result = run_cli(["--help"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert all(f"  {name} " in result.stdout for name in cli._COMMANDS)
        assert sorted(cli._COMMANDS) == ["bounds", "eval", "gen", "sample", "scan", "typical"]


class TestAbnormalEnds:
    def test_a_closed_stdout_exits_one_without_a_traceback(self):
        # the reader of the pipe is gone before the command writes, as after `| head`
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "qaoa_e3lin2.cli", "bounds", "-m", "10", "-D", "3"],
                stdout=write, stderr=subprocess.PIPE, env=fresh_env(),
                text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (1, "")

    def test_an_interrupt_exits_one(self, monkeypatch):
        from qaoa_e3lin2 import schedule

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(schedule, "guarantee", interrupt)
        result = run_cli(["bounds", "-m", "10", "-D", "3"])
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")


#: Run in a fresh interpreter with CALL replaced: the bounds command's exit code, the
#: collector's freeze count once the call is over, and, from an atexit handler registered
#: before the call and so run after every handler the call registers, the count at exit.
FREEZE_PROBE = """
import atexit, contextlib, gc, io, json, sys
seen = {}
atexit.register(lambda: print(json.dumps({**seen, "at_exit": gc.get_freeze_count()})))
from qaoa_e3lin2 import cli
sys.argv = ["qaoa-e3lin2", "bounds", "-m", "100", "-D", "3"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        seen["code"] = CALL
    except SystemExit as exc:
        seen["code"] = exc.code
seen["after_call"] = gc.get_freeze_count()
"""


class TestExitFreeze:
    @pytest.mark.parametrize(
        "call",
        ["cli.main()", "cli.main.main(args=sys.argv[1:], prog_name='qaoa-e3lin2')"],
        ids=["main", "shim"],
    )
    def test_the_process_command_line_freezes_the_collector_at_exit(self, call):
        seen = fresh(FREEZE_PROBE.replace("CALL", call))
        assert (seen["code"], seen["after_call"]) == (0, 0)
        assert seen["at_exit"] > 0

    def test_an_in_process_command_line_never_freezes_it(self):
        seen = fresh(FREEZE_PROBE.replace("CALL", "cli.main(sys.argv[1:])"))
        assert seen == {"code": 0, "after_call": 0, "at_exit": 0}
