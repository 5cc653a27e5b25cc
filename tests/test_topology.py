"""One plan per scan and one topology per sign ensemble.

The reference loops here take the straightforward path: a fresh
``objective_expectation`` per angle, and a fresh ``with_signs`` /
``resample_signs`` instance per sign vector, each compiling its own plan
from its own topology. Shared construction must reproduce them exactly
(``==``).
"""

import math

import numpy as np
import pytest

from qaoa_e3lin2 import analytic, schedule
from qaoa_e3lin2.analytic import (
    build_neighborhood,
    compile_plan,
    neighborhood_topology,
    objective_expectation,
)
from qaoa_e3lin2.instance import Clause, Instance, generate_random, resample_signs, with_signs
from qaoa_e3lin2.schedule import make_schedule, scan
from qaoa_e3lin2.typical import base_instance, ensemble_mean_exhaustive, ensemble_mean_mc

# dense n=8 octet: every neighborhood is entangled (q < 2 * pairs)
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

    def test_factorized_scan_builds_one_topology_and_no_neighborhood(self, monkeypatch):
        inst = generate_random(n=1000, m=200, d_bound=3, seed=2)
        assert all(len(t.support) == 2 * sum(map(len, t.pairs)) for t in neighborhood_topology(inst))
        calls = {"neighborhood_topology": 0, "build_neighborhood": 0}

        def counting(name):
            real = getattr(analytic, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            wrapper = counting(name)
            monkeypatch.setattr(analytic, name, wrapper)
            monkeypatch.setattr(schedule, name, wrapper, raising=False)
        result = scan(inst)
        assert len(result.points) == result.schedule.k + 1 > 1
        assert calls == {"neighborhood_topology": 1, "build_neighborhood": 0}


class TestEnsemblesShareTopology:
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
    def test_plan_topology_of_other_triples(self):
        inst = _signed(OCTET, seed=6)
        flipped = with_signs(inst, [1 - cl.rhs for cl in inst.clauses])
        plan = compile_plan(inst, topology=neighborhood_topology(flipped))
        assert plan.evaluate(0.3) == objective_expectation(inst, 0.3)
        permuted = Instance(n=inst.n, clauses=inst.clauses[1:] + inst.clauses[:1])
        with pytest.raises(ValueError, match="topology"):
            compile_plan(inst, topology=neighborhood_topology(permuted))

    def test_plan_topology_of_wrong_count_or_order(self):
        inst = _signed(OCTET, seed=6)
        topology = neighborhood_topology(inst)
        with pytest.raises(ValueError, match="topology"):
            compile_plan(inst, topology=topology[:-1])
        with pytest.raises(ValueError, match="topology"):
            compile_plan(inst, topology=topology[::-1])
        assert compile_plan(inst, topology=topology).evaluate(0.3) == objective_expectation(inst, 0.3)
        assert compile_plan(inst).evaluate(0.3) == objective_expectation(inst, 0.3)

    def test_topology_of_other_triples(self):
        inst = _signed(OCTET, seed=7)
        other = generate_random(n=8, m=8, d_bound=4, seed=1)
        assert other.triples() != inst.triples()
        with pytest.raises(ValueError, match="topology"):
            for j in range(inst.m):
                build_neighborhood(inst, j, neighborhood_topology(other))

    def test_topology_of_other_size(self, tiny_instance):
        topology = neighborhood_topology(tiny_instance)
        shorter = Instance(n=tiny_instance.n, clauses=tiny_instance.clauses[:-1])
        with pytest.raises(ValueError, match="topology"):
            build_neighborhood(shorter, 0, topology)

    def test_topology_ignores_signs(self, tiny_instance):
        flipped = with_signs(tiny_instance, [1 - cl.rhs for cl in tiny_instance.clauses])
        topology = neighborhood_topology(tiny_instance)
        assert topology == neighborhood_topology(flipped)
        for j in range(flipped.m):
            assert build_neighborhood(flipped, j, topology) == build_neighborhood(flipped, j)
