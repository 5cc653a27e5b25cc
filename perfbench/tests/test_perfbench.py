"""Tests of the benchmark's own code: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from checks import check  # noqa: E402
from layers import layer_metrics, self_times  # noqa: E402
from workloads import Command, read_instance, resign, write_instance  # noqa: E402

# Variable 0 sits in four clauses, so the derived occurrence bound is D=3
# and the scan grid has k+1 = 8 angles.
CLAUSES = [(0, 1, 2, 0), (0, 3, 4, 1), (0, 5, 6, 0), (0, 7, 8, 1), (1, 3, 5, 1), (2, 4, 6, 0)]
N = 9


def span(name, start, end, parent, attrs=None):
    return (name, start, end, parent, 1, attrs)


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 4.0, 0),  # overlaps a: the union [1, 4] counts once
        span("c", 5.0, 6.0, 0),
        span("a.inner", 1.5, 2.5, 1),
        span("late", 9.5, 11.0, 0),  # only its part inside the parent counts
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1 - 0.5, 1.0, 2.0, 1.0, 1.0, 1.5])


def test_layer_metrics_from_a_synthetic_tree():
    nbhd = {"q": 4}
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("schedule.scan", 1.0, 9.0, 0),
        span("analytic.objective_expectation", 1.0, 4.0, 1, {"w": "0.5"}),
        span("analytic.build_neighborhood", 1.0, 2.0, 2, nbhd),
        span("analytic.clause_term_exact", 2.0, 3.5, 2, {"route": "enumerated"}),
        span("analytic.combo_histogram", 2.0, 3.0, 4, {"q": 4, "key": 0}),
        span("analytic.objective_expectation", 4.0, 8.0, 1, {"w": "-0.5"}),
        span("analytic.build_neighborhood", 4.0, 5.0, 6, nbhd),
        span("analytic.clause_term_exact", 5.0, 6.0, 6, {"route": "enumerated"}),
        span("analytic.combo_histogram", 5.0, 5.5, 8, {"q": 4, "key": 0}),
    ]
    got = layer_metrics([(spans, 100)])
    assert got["schedule.w_evaluations"] == 2
    assert got["schedule.scan_self_s"] == pytest.approx(8.0 - 3.0 - 4.0)
    assert got["cli.command_self_s"] == pytest.approx(2.0)
    assert got["analytic.objective_self_s"] == pytest.approx((3.0 - 2.5) + (4.0 - 2.0))
    assert got["analytic.histogram_calls"] == 2
    assert got["analytic.histogram_distinct"] == 1
    assert got["analytic.histogram_reuse_ratio"] == 0.5
    assert got["analytic.enumerated_assignments"] == 16
    assert got["analytic.route_enumerated"] == 2
    assert got["analytic.clause_term_self_s"] == pytest.approx(0.5 + 0.5)
    assert got["cli.output_bytes"] == 100


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    pct, value = run.tail_percentile([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)


def test_reference_task_runs_and_matches_its_checksum(tmp_path):
    assert run.reference_cpu(tmp_path) > 0.0


def test_resign_keeps_every_triple_in_place(tmp_path):
    source, target = tmp_path / "a.e3lin2", tmp_path / "b.e3lin2"
    write_instance(source, N, CLAUSES)
    resign(source, target, random.Random(5))
    n, clauses = read_instance(target)
    assert n == N
    assert [c[:3] for c in clauses] == [c[:3] for c in CLAUSES]
    assert [c[3] for c in clauses] != [c[3] for c in CLAUSES]


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "small.e3lin2"
    write_instance(path, N, CLAUSES)
    return path


def _cli(argv, work, traced=False):
    traced_as = (work / "spans.json", 7) if traced else None
    outcome = run.run_command(argv, work, traced_as)
    assert outcome.returncode == 0, outcome.stderr.decode()
    spans = json.loads((work / "spans.json").read_text())["spans"] if traced else []
    return json.loads(outcome.stdout), layer_metrics([(spans, len(outcome.stdout))])


@pytest.fixture(scope="module")
def outputs(instance, tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    path = str(instance)
    return {
        "scan": _cli(["scan", path], work, traced=True),
        "eval_sv": _cli(["eval", path, "--gamma", "0.3", "--compare-statevector"], work, traced=True),
        "typical_exact": _cli(["typical", path, "--trials", "0"], work, traced=True),
        "typical_mc": _cli(["typical", path, "--trials", "40", "--seed", "3"], work),
        "sample": _cli(["sample", path, "--gamma", "0.3", "--samples", "2000"], work),
    }


def test_traced_counts_match_the_code(outputs):
    m = len(CLAUSES)
    scan = outputs["scan"][1]
    assert scan["schedule.w_evaluations"] == 8
    assert scan["analytic.neighborhood_calls"] == 8 * m
    assert scan["analytic.objective_calls"] == 8
    assert outputs["eval_sv"][1]["statevector.cost_values_calls"] == 2
    assert outputs["eval_sv"][1]["statevector.bytes_computed"] == 16 * (N + 3) * (1 << N)
    exact = outputs["typical_exact"][1]
    assert exact["typical.sign_vectors"] == 2**m
    assert exact["instance.sign_rebuilds"] == 2**m
    assert 1 <= exact["typical.distinct_w"] <= 2**m


@pytest.mark.parametrize(
    "kind, corrupt",
    [
        ("scan", lambda d: d["curve"][0].update(value=d["curve"][0]["value"] + 1e-6)),
        ("scan", lambda d: d["best"].update(value=d["best"]["value"] / 2)),
        ("eval_sv", lambda d: d.update(total=d["total"] + 1e-6)),
        ("eval_sv", lambda d: d["terms"][0].update(value=0.75)),
        ("eval_sv", lambda d: d["statevector"].update(difference=1e-6)),
        ("sample", lambda d: d.update(best_satisfied=d["best_satisfied"] - 1)),
        ("sample", lambda d: d.update(mean_satisfied=d["predicted_mean"] + 1.0)),
        ("typical_exact", lambda d: d.update(mean_w=d["mean_w"] + 1e-9)),
        ("typical_mc", lambda d: d.update(mean_w=d["closed_form_mean"] + 4 * d["stderr"] + 1e-6)),
        ("typical_mc", lambda d: d.update(variance=2 * d["variance_bound"])),
    ],
)
def test_checks_reject_corrupted_output(outputs, kind, corrupt):
    doc = outputs[kind][0]
    assert check(kind, doc, run.ROOT) == []
    bad = copy.deepcopy(doc)
    corrupt(bad)
    assert check(kind, bad, run.ROOT) != []


def test_ledger_fails_a_repeat_that_differs(outputs):
    ledger = run.Ledger(validator=run.schema_validator())
    cmd = Command("scan", "scan", ("scan",))
    good = json.dumps(outputs["scan"][0]).encode()
    ledger.add(cmd, run.Outcome(1.0, 1.0, 1.0, 0, False, good, b""))
    ledger.add(cmd, run.Outcome(1.0, 1.0, 1.0, 0, False, good.replace(b'"r": 0', b'"r": 1', 1), b""))
    ledger.add(cmd, run.Outcome(1.0, 1.0, 1.0, 1, False, b"", b"boom"))
    attempted, failed, problems = ledger.finish()
    assert (attempted, failed) == (3, 2)

