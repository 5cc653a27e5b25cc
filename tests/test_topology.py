"""One plan per scan, and one sign-free clause table per plan.

The reference loops here take the straightforward path: a fresh
``objective_expectation`` per angle, and a fresh ``with_signs`` /
``resample_signs`` instance per sign vector, each compiling its own plan
from its own table. Shared construction must reproduce them exactly
(``==``). A plan builds ``instance._clause_table`` once, over its clauses
that do not factorize, however many angles and ensemble vectors it
evaluates; a factorized clause is routed from ``pair_stats`` alone. A
neighborhood reads the table of its own clause.
"""

import math

import numpy as np
import pytest

from qaoa_e3lin2 import analytic
from qaoa_e3lin2 import instance as instance_module
from qaoa_e3lin2.analytic import build_neighborhood, objective_expectation
from qaoa_e3lin2.instance import Clause, Instance, generate_random, resample_signs, with_signs
from qaoa_e3lin2.schedule import make_schedule, scan
from qaoa_e3lin2.typical import base_instance, ensemble_mean_exhaustive, ensemble_mean_mc

from test_instance import grouped_table

# dense n=8 octet: every neighborhood but clause 3's, (4, 6, 7), is entangled (q < 2 * pairs)
OCTET = ((4, 5, 7), (0, 6, 7), (3, 4, 6), (4, 6, 7), (1, 5, 7), (0, 3, 5), (0, 1, 5), (0, 2, 3))


def _signed(triples, seed):
    rhs = np.random.default_rng(seed).integers(0, 2, size=len(triples))
    return Instance(n=8, clauses=tuple(Clause(*t, int(r)) for t, r in zip(triples, rhs)))


def _reference_scan(instance, **kwargs):
    sched = make_schedule(max(1, instance.d_bound))
    reports = [objective_expectation(instance, g, **kwargs) for g in sched.gammas]
    best_r = max(range(len(reports)), key=lambda r: (abs(reports[r].total), -r))
    sign = 1 if reports[best_r].total >= 0 else -1
    return reports, best_r, sign, sign * sched.gammas[best_r], abs(reports[best_r].total)


def _assert_scan_matches_reference(instance, **kwargs):
    result = scan(instance, **kwargs)
    reports, best_r, best_sign, best_gamma, best_value = _reference_scan(instance, **kwargs)
    assert [p.value for p in result.points] == [rep.total for rep in reports]
    assert [p.stderr for p in result.points] == [rep.stderr for rep in reports]
    assert (result.best_r, result.best_sign) == (best_r, best_sign)
    assert result.best_gamma == best_gamma
    assert result.best_value == best_value


class TestScanReusesNeighborhoods:
    def test_sparse_factorized_instance(self):
        inst = generate_random(n=300, m=200, d_bound=3, seed=9)
        _assert_scan_matches_reference(inst)

    def test_dense_entangled_instance(self):
        inst = _signed(OCTET, seed=4)
        assert any(
            nb.q_size < 2 * sum(nb.pair_counts)
            for nb in (build_neighborhood(inst, j) for j in range(inst.m))
        )
        _assert_scan_matches_reference(inst, mode="exact")

    def test_monte_carlo_mode(self):
        inst = _signed(OCTET, seed=5)
        _assert_scan_matches_reference(inst, mode="mc", mc_samples=500, seed=3)

    def test_factorized_scan_builds_an_empty_table_and_no_neighborhood(self, monkeypatch):
        inst = generate_random(n=1000, m=200, d_bound=3, seed=2)
        assert all(len(support) == 2 * len(pairs) for support, pairs, _ in grouped_table(inst, np.arange(inst.m)))
        tables, neighborhoods = table_builds(monkeypatch), []
        real = analytic.build_neighborhood
        monkeypatch.setattr(analytic, "build_neighborhood", lambda *a: neighborhoods.append(a) or real(*a))
        result = scan(inst)
        assert len(result.points) == result.schedule.k + 1 > 1
        # the scan's one plan builds its table over no clause, and no neighborhood
        assert tables == [[]] and neighborhoods == []


def table_builds(monkeypatch):
    """The clauses of every ``instance._clause_table`` call, as lists, in call order."""
    calls = []
    real = instance_module._clause_table
    monkeypatch.setattr(instance_module, "_clause_table", lambda *a: calls.append(a[-1].tolist()) or real(*a))
    return calls


class TestTableBuiltOncePerPlan:
    """An ensemble's one plan builds the table of its base instance once; a neighborhood reads its clause's."""

    @pytest.fixture
    def builds(self, monkeypatch):
        return table_builds(monkeypatch)

    def test_each_neighborhood_reads_its_own_clause(self, builds):
        inst = _signed(OCTET, seed=3)
        for _ in range(2):
            for j in range(inst.m):
                build_neighborhood(inst, j)
        assert builds == [[j] for _ in range(2) for j in range(inst.m)]

    def test_exhaustive_ensemble_builds_one(self, builds):
        # one table of the enumerated clauses, for all 64 sign vectors; clause 3 factorizes
        ensemble_mean_exhaustive(OCTET[:6], 0.4)
        assert builds == [[0, 1, 2, 4, 5]]

    def test_monte_carlo_ensemble_builds_one(self, builds):
        # q_max 4 sends clauses 1, 6 and 7 to Monte Carlo, whose pair rows every trial reads
        # from the same table; clause 3 factorizes
        for trials in (5, 12):
            builds.clear()
            ensemble_mean_mc(OCTET, 0.3, trials=trials, seed=1, q_max=4)
            assert builds == [[0, 1, 2, 4, 5, 6, 7]]


class TestEnsemblesShareOneTable:
    def test_exhaustive_matches_fresh_instances(self):
        gamma = 0.41
        base = base_instance(OCTET)
        values = [
            objective_expectation(
                with_signs(base, [(code >> j) & 1 for j in range(base.m)]), gamma, mode="exact"
            ).total
            for code in range(1 << base.m)
        ]
        mean = math.fsum(values) / len(values)
        variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
        report = ensemble_mean_exhaustive(OCTET, gamma)
        assert variance > 0
        assert (report.mean_w, report.variance, report.stderr) == (mean, variance, 0.0)

    def test_monte_carlo_matches_fresh_instances(self):
        gamma, trials, seed = 0.33, 12, 8
        base = base_instance(OCTET)
        values = np.array([
            objective_expectation(resample_signs(base, seed=[seed, t]), gamma, mode="auto").total
            for t in range(trials)
        ])
        variance = float(np.var(values, ddof=1))
        report = ensemble_mean_mc(OCTET, gamma, trials=trials, seed=seed)
        assert report.mean_w == float(np.mean(values))
        assert report.variance == variance
        assert report.stderr == math.sqrt(variance / trials)


class TestMismatchRefused:
    """The clause table is read from an instance's own triples; its signs leave it unchanged."""

    def test_clause_table_ignores_signs(self, tiny_instance):
        flipped = with_signs(tiny_instance, [1 - cl.rhs for cl in tiny_instance.clauses])
        clauses = np.arange(tiny_instance.m)
        assert grouped_table(tiny_instance, clauses) == grouped_table(flipped, clauses)
