import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaoa_e3lin2 import _caps, analytic, instance
from qaoa_e3lin2.analytic import SupportTooLargeError, build_neighborhood, objective_expectation
from qaoa_e3lin2.instance import generate_random, parse, resample_signs, serialize, with_signs
from qaoa_e3lin2.typical import (
    EXHAUSTIVE,
    EXHAUSTIVE_MAX_M,
    MONTE_CARLO,
    EnsembleReport,
    base_instance,
    clause_mean_closed_form,
    collection_closed_form,
    ensemble_mean_exhaustive,
    ensemble_mean_mc,
    optimal_gamma_typical,
    sandwich_bounds,
    typical_guarantee,
    variance_bound,
)

from conftest import instances, run_cli
from test_topology import table_builds

# four triples whose incidence rows sum to zero over GF(2); the sign
# ensemble splits into two orbits, yet W still cannot tell them apart:
# every neighborhood here has a single active slot, so each clause term
# reduces to (1/2) sin cos with no sign left in it
DEPENDENT_QUAD = ((0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5))

# three triples with independent incidence rows: every sign assignment is
# reachable from every other by flipping variables, so W is constant
INDEPENDENT_TRIO = ((0, 1, 2), (0, 1, 3), (0, 1, 4))

# dense octet with verified positive ensemble variance (0.030 at gamma =
# 0.52): several clauses see all three slots occupied, which keeps the
# focal-sign-odd part of their terms alive
SPREAD_OCTET = (
    (4, 5, 7),
    (0, 6, 7),
    (3, 4, 6),
    (4, 6, 7),
    (1, 5, 7),
    (0, 3, 5),
    (0, 1, 5),
    (0, 2, 3),
)

ENTANGLED_PATH = Path(__file__).parent / "golden" / "entangled.e3lin2"

# neighbors (0, 3, 4) and (1, 3, 4) of clause (0, 1, 2) carry the same
# pair (3, 4) into two of its forms; (2, 3, 5) and (2, 4, 5) close cycles
SHARED_PAIR = ((0, 1, 2), (0, 3, 4), (1, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5))


def brute_force_report(base, gamma, mean, stderr, variance, trials, method, seed):
    """The report of an ensemble whose W values the test computed itself."""
    lower, upper = sandwich_bounds(base.m, base.d_bound, gamma)
    return EnsembleReport(
        m=base.m,
        d_bound=base.d_bound,
        gamma=gamma,
        method=method,
        trials=trials,
        seed=seed,
        mean_w=mean,
        stderr=stderr,
        variance=variance,
        closed_form_mean=collection_closed_form(base, gamma),
        lower_bound=lower,
        upper_bound=upper,
        variance_bound=variance_bound(base.m, base.d_bound),
    )


def brute_force_exhaustive(triples, gamma, q_max=None):
    """One fresh instance and one ``objective_expectation`` per sign vector."""
    base = base_instance(triples)
    values = [
        objective_expectation(
            with_signs(base, [(code >> j) & 1 for j in range(base.m)]), gamma, "exact", q_max
        ).total
        for code in range(1 << base.m)
    ]
    mean = math.fsum(values) / len(values)
    variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return brute_force_report(base, gamma, mean, 0.0, variance, len(values), EXHAUSTIVE, 0)


def brute_force_mc(triples, gamma, trials, seed, q_max=None):
    base = base_instance(triples)
    values = np.array([
        objective_expectation(resample_signs(base, seed=[seed, t]), gamma, "auto", q_max).total
        for t in range(trials)
    ])
    variance = float(np.var(values, ddof=1))
    stderr = math.sqrt(variance / trials)
    mean = float(np.mean(values))
    return brute_force_report(base, gamma, mean, stderr, variance, trials, MONTE_CARLO, seed)


def has_shared_pair_and_cycle(triples):
    """Whether some clause has one pair in two forms, and some pair graph a cycle."""
    base = base_instance(triples)
    shared = cycle = False
    for j in range(base.m):
        pairs = [(a, b) for form in build_neighborhood(base, j).forms for a, b, _ in form]
        shared |= len(set(pairs)) < len(pairs)
        support = {v for pair in pairs for v in pair}
        cycle |= len(set(pairs)) >= len(support) > 0
    return shared, cycle


class TestBaseInstance:
    def test_infers_width(self):
        inst = base_instance(DEPENDENT_QUAD)
        assert inst.n == 6
        assert inst.m == 4
        assert all(cl.rhs == 0 for cl in inst.clauses)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            base_instance(((2, 1, 0),))

    def test_rejects_a_negative_index(self):
        with pytest.raises(ValueError, match=r"clause 0: triple \(-1, 0, 1\) outside \[0, 3\)"):
            base_instance(((-1, 0, 1), (0, 1, 2)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            base_instance(((0, 1, 2), (0, 1, 2)))

    def test_rejects_rows_that_are_not_triples(self):
        # an (m, 4) row array was once reshaped to triples, which read rhs bits as variables and
        # named a triple the caller never passed
        rows = np.array([(0, 1, 2, 0), (1, 3, 4, 1), (0, 1, 5, 0)])
        with pytest.raises(ValueError, match=r"^triples must be an \(m, 3\) array; got shape \(3, 4\)$"):
            base_instance(rows)
        assert base_instance([]).m == base_instance(np.zeros((0, 3), dtype=np.intp)).m == 0


class TestClosedForm:
    def test_isolated_clause(self):
        inst = base_instance(((0, 1, 2),))
        nb = build_neighborhood(inst, 0)
        for g in (0.0, 0.4, 1.2):
            assert clause_mean_closed_form(nb, g) == pytest.approx(
                0.5 * math.sin(g), abs=1e-15
            )

    def test_zero_angle_kills_everything(self):
        inst = base_instance(DEPENDENT_QUAD)
        assert collection_closed_form(inst, 0.0) == 0.0

    def test_exponent_counts_neighbor_pairs(self):
        # star: focal (0,1,2) with two neighbors through variable 0 and one
        # through variable 2, so the focal clause carries cos^3
        inst = base_instance(((0, 1, 2), (0, 3, 4), (0, 5, 6), (2, 7, 8)))
        nb = build_neighborhood(inst, 0)
        assert nb.pair_counts == (2, 0, 1)
        g = 0.7
        assert clause_mean_closed_form(nb, g) == pytest.approx(
            0.5 * math.sin(g) * math.cos(g) ** 3, abs=1e-15
        )

    def test_collection_reads_pair_totals_without_neighborhoods(self, monkeypatch):
        per_clause = [build_neighborhood(base_instance(SPREAD_OCTET), j) for j in range(8)]
        inst = base_instance(SPREAD_OCTET)
        calls = table_builds(monkeypatch)
        for g in (0.3, 0.52, -1.1):
            want = math.fsum(clause_mean_closed_form(nb, g) for nb in per_clause)
            assert collection_closed_form(inst, g) == want
        assert calls == []


class TestExhaustive:
    def test_single_clause(self):
        rep = ensemble_mean_exhaustive(((0, 1, 2),), 0.9)
        assert rep.method == EXHAUSTIVE
        assert rep.trials == 2
        assert rep.stderr == 0.0
        assert rep.mean_w == pytest.approx(0.5 * math.sin(0.9), abs=1e-15)
        assert rep.variance == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize(
        "triples",
        [
            DEPENDENT_QUAD,
            INDEPENDENT_TRIO,
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
            ((0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 5, 6)),
        ],
    )
    def test_matches_closed_form(self, triples):
        rep = ensemble_mean_exhaustive(triples, 0.43)
        assert rep.mean_w == pytest.approx(rep.closed_form_mean, abs=1e-10)

    def test_random_collection_matches_closed_form(self):
        inst = generate_random(n=9, m=8, d_bound=3, seed=140)
        rep = ensemble_mean_exhaustive(inst.triples(), 0.31)
        assert rep.mean_w == pytest.approx(rep.closed_form_mean, abs=1e-10)

    def test_gauge_orbit_collapses_variance(self):
        # independent incidence rows: variable flips reach every sign
        # assignment, so the ensemble carries no spread at all
        rep = ensemble_mean_exhaustive(INDEPENDENT_TRIO, 0.52)
        assert rep.variance <= 1e-24

    def test_dependent_rows_alone_do_not_spread(self):
        # rank deficiency is necessary for spread but not sufficient
        rep = ensemble_mean_exhaustive(DEPENDENT_QUAD, 0.52)
        assert rep.variance <= 1e-24

    def test_dense_collection_spreads(self):
        rep = ensemble_mean_exhaustive(SPREAD_OCTET, 0.52)
        assert rep.variance > 1e-3
        assert rep.variance <= rep.variance_bound
        assert rep.mean_w == pytest.approx(rep.closed_form_mean, abs=1e-10)

    def test_refuses_large_m(self):
        triples = tuple((0, j + 1, j + 2) for j in range(EXHAUSTIVE_MAX_M + 1))
        with pytest.raises(ValueError):
            ensemble_mean_exhaustive(triples, 0.1)

    def test_empty_collection(self):
        rep = ensemble_mean_exhaustive((), 0.4)
        assert rep.mean_w == 0.0
        assert rep.trials == 1


class TestMonteCarlo:
    def test_deterministic(self):
        a = ensemble_mean_mc(SPREAD_OCTET, 0.4, trials=50, seed=8)
        b = ensemble_mean_mc(SPREAD_OCTET, 0.4, trials=50, seed=8)
        assert a == b
        assert a.method == MONTE_CARLO
        assert a != ensemble_mean_mc(SPREAD_OCTET, 0.4, trials=50, seed=9)

    def test_tracks_closed_form(self):
        rep = ensemble_mean_mc(SPREAD_OCTET, 0.35, trials=400, seed=3)
        assert rep.stderr > 0.0
        assert abs(rep.mean_w - rep.closed_form_mean) <= 4.0 * rep.stderr

    def test_degenerate_collection_pins_to_closed_form(self):
        # zero ensemble variance: every trial returns the same W, and that
        # constant must be the closed form itself
        inst = generate_random(n=10, m=12, d_bound=3, seed=21)
        rep = ensemble_mean_mc(inst.triples(), 0.35, trials=50, seed=3)
        assert abs(rep.mean_w - rep.closed_form_mean) <= max(4.0 * rep.stderr, 1e-9)

    def test_variance_stays_under_ceiling(self):
        rep = ensemble_mean_mc(SPREAD_OCTET, 0.5, trials=300, seed=0)
        assert rep.variance > 0.0
        assert rep.variance <= rep.variance_bound

    def test_rejects_tiny_trials(self):
        with pytest.raises(ValueError):
            ensemble_mean_mc(DEPENDENT_QUAD, 0.4, trials=1)

    def test_monte_carlo_clauses_draw_the_same_spins_in_every_trial(self, monkeypatch):
        # at q_max=8 all 36 clauses of the entangled golden are Monte Carlo;
        # give every trial the same signs: W then repeats bitwise, whatever
        # the seed, and equals W of that one signed instance drawn at seed 0
        inst = parse(ENTANGLED_PATH.read_text(encoding="utf-8"))
        assert len(analytic.EvaluationPlan(inst, "auto", 8).mc) == inst.m == 36
        row = instance.random_rhs(inst.m, [5, 0])
        monkeypatch.setattr(instance, "random_rhs", lambda m, seed: row)
        monkeypatch.setattr(analytic, "MC_SAMPLES", 1000)
        reports = [ensemble_mean_mc(inst.triples(), 0.3, 2, seed=s, q_max=8) for s in (1, 2)]
        assert reports[0] == dataclasses.replace(reports[1], seed=1)
        assert reports[0].variance == 0.0
        signed = analytic.EvaluationPlan(with_signs(inst, row), "auto", 8)
        assert reports[0].mean_w == signed.total(0.3, mc_samples=1000, seed=0)[0]

    @pytest.fixture
    def no_w_array(self, monkeypatch):
        # refuse only an allocation the size of the trillion-entry W; numpy's
        # own smaller np.empty calls pass through
        empty = np.empty

        def refuse(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) >= 10**12:
                raise AssertionError("an array of W was allocated")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse)

    def test_refuses_a_trillion_trials_before_allocating(self, no_w_array):
        with pytest.raises(_caps.MemoryCapError, match="W of 1000000000000 sign vectors"):
            ensemble_mean_mc(SPREAD_OCTET, 0.4, trials=10**12)

    def test_typical_command_refuses_a_trillion_trials(self, tmp_path, no_w_array):
        path = tmp_path / "octet.e3lin2"
        path.write_text(serialize(base_instance(SPREAD_OCTET)), encoding="utf-8")
        result = run_cli(["typical", str(path), "--trials", str(10**12)])
        assert result.exit_code == 2
        assert "physical memory" in result.output


class TestAgainstBruteForce:
    """Both ensembles equal (==) a loop over fresh instances, one W per sign vector."""

    def test_the_fixed_collections_have_shared_pairs_cycles_and_every_route(self):
        assert has_shared_pair_and_cycle(SHARED_PAIR) == (True, True)
        assert has_shared_pair_and_cycle(SPREAD_OCTET)[1]
        # at q_max = 4 the octet has factorized, enumerated and Monte Carlo clauses
        plan = analytic.EvaluationPlan(base_instance(SPREAD_OCTET), "auto", 4)
        assert len(plan.mc) == 3
        assert {type(key) for key in plan.keys} == {int, tuple}

    @given(
        inst=instances(min_n=5, max_n=8, max_m=8),
        gamma=st.floats(0.05, 1.5),
    )
    @example(inst=base_instance(SHARED_PAIR), gamma=0.47)
    @example(inst=base_instance(SPREAD_OCTET), gamma=0.52)
    @settings(max_examples=25)
    def test_exhaustive(self, inst, gamma):
        triples = inst.triples()
        assert ensemble_mean_exhaustive(triples, gamma) == brute_force_exhaustive(triples, gamma)

    @given(
        inst=instances(min_n=5, max_n=9, max_m=12),
        gamma=st.floats(0.05, 1.5),
        trials=st.integers(2, 12),
        seed=st.integers(0, 1000),
    )
    @example(inst=base_instance(SHARED_PAIR), gamma=0.47, trials=9, seed=4)
    @settings(max_examples=25)
    def test_monte_carlo(self, inst, gamma, trials, seed):
        triples = inst.triples()
        want = brute_force_mc(triples, gamma, trials, seed)
        assert ensemble_mean_mc(triples, gamma, trials, seed=seed) == want

    @given(
        inst=instances(min_n=6, max_n=8, max_m=10),
        q_max=st.integers(0, 4),
        seed=st.integers(0, 1000),
    )
    @example(inst=base_instance(SPREAD_OCTET), q_max=4, seed=1)
    @example(inst=base_instance(SHARED_PAIR), q_max=2, seed=1)
    @settings(max_examples=6)
    def test_monte_carlo_clauses_above_a_low_cap(self, inst, q_max, seed):
        triples = inst.triples()
        want = brute_force_mc(triples, 0.4, 3, seed, q_max)
        assert ensemble_mean_mc(triples, 0.4, 3, seed=seed, q_max=q_max) == want

    def test_exhaustive_refuses_a_support_above_the_cap(self):
        with pytest.raises(SupportTooLargeError):
            brute_force_exhaustive(SHARED_PAIR, 0.4, q_max=2)
        with pytest.raises(SupportTooLargeError):
            ensemble_mean_exhaustive(SHARED_PAIR, 0.4, q_max=2)

    def test_one_vector_per_chunk_changes_nothing(self, monkeypatch):
        want = (
            ensemble_mean_exhaustive(SPREAD_OCTET, 0.52),
            ensemble_mean_mc(SHARED_PAIR, 0.47, trials=20, seed=3),
        )
        monkeypatch.setattr(analytic, "_CODE_CHUNK_BYTES", 1)
        plan = analytic.EvaluationPlan(base_instance(SPREAD_OCTET), "exact")
        assert plan.vectors_per_chunk() == 1
        got = (
            ensemble_mean_exhaustive(SPREAD_OCTET, 0.52),
            ensemble_mean_mc(SHARED_PAIR, 0.47, trials=20, seed=3),
        )
        assert got == want


class TestSandwich:
    def test_formula(self):
        lo, hi = sandwich_bounds(10, 2, 0.3)
        assert hi == pytest.approx(5.0 * math.sin(0.3), rel=1e-15)
        assert lo == pytest.approx(hi * math.cos(0.3) ** 6, rel=1e-15)

    @given(inst=instances(min_n=4, max_n=10, max_m=8), idx=st.integers(0, 30))
    @settings(max_examples=40)
    def test_brackets_the_closed_form(self, inst, idx):
        gammas = np.linspace(0.01, math.pi / 2 - 0.01, 31)
        g = float(gammas[idx % 31])
        base = base_instance(inst.triples())
        mean = collection_closed_form(base, g)
        lo, hi = sandwich_bounds(base.m, base.d_bound, g)
        assert lo - 1e-12 <= mean <= hi + 1e-12


class TestOptimalAngle:
    def test_pinned_values(self):
        assert optimal_gamma_typical(3) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert optimal_gamma_typical(1) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            optimal_gamma_typical(0)

    def test_near_maximizer_of_lower_bound_at_large_d(self):
        d = 100
        gammas = np.linspace(1e-4, 0.2, 20001)
        lower = np.sin(gammas) * np.cos(gammas) ** (3 * d)
        best = float(gammas[int(np.argmax(lower))])
        assert abs(best - optimal_gamma_typical(d)) <= 1e-3

    def test_gaussian_shape_at_large_d(self):
        # for large D the lower-bound shape is the Gaussian g e^(-3 D g^2 / 2)
        d = 100
        for u in (0.3, 0.6, 1.0, 1.4):
            g = u / math.sqrt(3.0 * d)
            exact = math.sin(g) * math.cos(g) ** (3 * d)
            gaussian = g * math.exp(-1.5 * d * g * g)
            assert exact == pytest.approx(gaussian, rel=0.02)

    def test_peak_ratio_approaches_inverse_root_e(self):
        d = 100
        g = optimal_gamma_typical(d)
        ratio = math.cos(g) ** (3 * d)
        assert ratio == pytest.approx(math.exp(-0.5), rel=0.02)


class TestGuarantee:
    def test_normalization(self):
        m = 2.0 * math.sqrt(3.0 * math.e)
        assert typical_guarantee(m, 1) == pytest.approx(1.0, rel=1e-15)

    def test_pinned_value(self):
        assert typical_guarantee(1000, 4) == pytest.approx(
            87.54515991421256, rel=1e-12
        )

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            typical_guarantee(10, 0)

    def test_matches_lower_bound_at_typical_angle_up_to_root_e(self):
        # (m/2) sin(g*) e^(-1/2) with sin g* ~ g* reproduces the guarantee
        m, d = 500, 25
        g = optimal_gamma_typical(d)
        approx = 0.5 * m * g * math.exp(-0.5)
        assert typical_guarantee(m, d) == pytest.approx(approx, rel=0.01)
