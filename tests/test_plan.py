"""The evaluation plan against the per-clause loop it replaced.

``reference_report`` is the routing loop ``objective_expectation`` ran
before it compiled a plan: a fresh neighborhood for every clause and one
``clause_term_exact`` / ``clause_term_mc`` call per clause. The plan keys
each exact clause term (pair total P, or gauge-canonical forms and focal
sign) and evaluates every distinct key once; ``math.fsum`` is correctly
rounded, so every term, total and stderr must come out equal (``==``).
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_e3lin2 import _caps, analytic
from qaoa_e3lin2._caps import MC_SAMPLES
from qaoa_e3lin2.analytic import (
    EXACT_METHOD,
    EvaluationPlan,
    ExpectationReport,
    SupportTooLargeError,
    _gauge_fixed,
    build_neighborhood,
    clause_term_exact,
    clause_term_mc,
    combo_histogram,
    objective_expectation,
)
from qaoa_e3lin2.instance import (
    Clause,
    Instance,
    code_bits,
    generate_random,
    parse,
    random_rhs,
    resample_signs,
    with_signs,
)
from qaoa_e3lin2.schedule import make_schedule, scan
from qaoa_e3lin2.typical import base_instance, ensemble_mean_exhaustive, ensemble_mean_mc

from conftest import dumb_combo_histogram, instances
from test_histogram_kernel import ENTANGLED, ENTANGLED_PATH, assert_same, loop_histogram
from test_instance import grouped_table
from test_topology import OCTET, table_builds

GAMMAS = (0.37, -0.21, 1.3)
DEMO_PATH = ENTANGLED_PATH.with_name("demo.e3lin2")


def reference_report(instance, gamma, mode="auto", q_max=None, mc_samples=100_000, seed=0):
    q_cap = _caps.Q_MAX_DEFAULT if q_max is None else q_max
    terms = []
    for j in range(instance.m):
        nbhd = build_neighborhood(instance, j)
        if mode == "mc":
            terms.append(clause_term_mc(nbhd, gamma, mc_samples, seed=[seed, j]))
        elif mode == "exact":
            terms.append(clause_term_exact(nbhd, gamma, q_max=q_cap))
        else:
            factorizes = nbhd.q_size == 2 * sum(nbhd.pair_counts)
            if factorizes or nbhd.q_size <= q_cap:
                terms.append(clause_term_exact(nbhd, gamma, q_max=q_cap))
            else:
                terms.append(clause_term_mc(nbhd, gamma, mc_samples, seed=[seed, j]))
    return ExpectationReport(
        n=instance.n,
        m=instance.m,
        d_bound=instance.d_bound,
        gamma=gamma,
        mode=mode,
        mc_samples=mc_samples,
        seed=seed,
        total=math.fsum(t.value for t in terms),
        stderr=math.sqrt(math.fsum(t.stderr**2 for t in terms)),
        terms=tuple(terms),
    )


def assert_matches_reference(instance, **kwargs):
    for gamma in GAMMAS:
        got = objective_expectation(instance, gamma, **kwargs)
        want = reference_report(instance, gamma, **kwargs)
        assert got.terms == want.terms
        assert (got.total, got.stderr) == (want.total, want.stderr)
        assert got == want


def flip_spin(forms, v):
    """The forms after the support spin at position v is negated."""
    return tuple(tuple((a, b, -s if v in (a, b) else s) for a, b, s in form) for form in forms)


def all_neighborhoods(instance):
    return [build_neighborhood(instance, j) for j in range(instance.m)]


class TestPlanMatchesReference:
    @given(inst=instances(max_n=10, max_m=9))
    @settings(max_examples=40)
    def test_exact_mode(self, inst):
        assert_matches_reference(inst, mode="exact")

    @given(inst=instances(max_n=10, max_m=9))
    @settings(max_examples=40)
    def test_auto_mode(self, inst):
        assert_matches_reference(inst, mode="auto")

    @given(inst=instances(max_n=9, max_m=7), seed=st.integers(0, 5))
    @settings(max_examples=25)
    def test_mc_mode(self, inst, seed):
        assert_matches_reference(inst, mode="mc", mc_samples=300, seed=seed)

    @given(inst=instances(max_n=10, max_m=9), q_max=st.integers(0, 5), seed=st.integers(0, 5))
    @settings(max_examples=60)
    def test_auto_mode_with_routes_mixed(self, inst, q_max, seed):
        assert_matches_reference(inst, mode="auto", q_max=q_max, mc_samples=300, seed=seed)

    def test_entangled_instance_mixes_every_route(self):
        plan = EvaluationPlan(ENTANGLED, q_max=12)
        assert plan.mc and any(i >= 0 for i in plan.key_of)
        assert_matches_reference(ENTANGLED, q_max=12, mc_samples=500, seed=4)

    def test_focal_sign_splits_a_key(self):
        # two variable-disjoint octets, equal but for the sign of their first clause
        rhs = [1, 0, 0, 1, 1, 0, 1, 0]
        clauses = [Clause(*t, r) for t, r in zip(OCTET, rhs)]
        clauses += [Clause(a + 8, b + 8, c + 8, r) for (a, b, c), r in zip(OCTET, [0] + rhs[1:])]
        inst = Instance(n=16, clauses=tuple(clauses))
        plan = EvaluationPlan(inst)
        first, twin = plan.keys[plan.key_of[0]], plan.keys[plan.key_of[8]]
        assert first[:2] == twin[:2] and first[2] == -twin[2]
        assert_matches_reference(inst)

    def test_factorized_and_enumerated_keys_mix(self):
        inst = generate_random(n=60, m=40, d_bound=3, seed=2)
        plan = EvaluationPlan(inst)
        kinds = {type(key) for key in plan.keys}
        assert kinds == {int, tuple}
        assert len(plan.keys) < inst.m and not plan.mc
        assert_matches_reference(inst)

    @given(inst=instances(max_n=10, max_m=9), q_max=st.integers(0, 5))
    @settings(max_examples=25)
    def test_scan_points_match_reference(self, inst, q_max):
        result = scan(inst, q_max=q_max, mc_samples=200, seed=1)
        sched = make_schedule(max(1, inst.d_bound))
        reports = [reference_report(inst, g, q_max=q_max, mc_samples=200, seed=1) for g in sched.gammas]
        assert [(p.value, p.stderr) for p in result.points] == [(r.total, r.stderr) for r in reports]


class TestRefusals:
    def test_exact_mode_refuses_at_the_first_clause_over_the_cap(self):
        first = next(
            len(support)
            for support, pairs, _ in grouped_table(ENTANGLED, np.arange(ENTANGLED.m))
            if 12 < len(support) < 2 * len(pairs)
        )
        with pytest.raises(SupportTooLargeError) as want:
            reference_report(ENTANGLED, 0.3, mode="exact", q_max=12)
        with pytest.raises(SupportTooLargeError) as got:
            objective_expectation(ENTANGLED, 0.3, mode="exact", q_max=12)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"q={first} exceeds exact-enumeration cap 12; use clause_term_mc"
        with pytest.raises(SupportTooLargeError, match=str(want.value)):
            EvaluationPlan(ENTANGLED, "exact", 12)

    def test_unknown_mode(self, tiny_instance):
        with pytest.raises(ValueError, match="mode"):
            EvaluationPlan(tiny_instance, "fast")


class TestGaugeCanonicalForms:
    @given(inst=instances(max_n=10, max_m=9))
    @settings(max_examples=50)
    def test_flipping_any_support_spin_leaves_them_unchanged(self, inst):
        for nbhd in all_neighborhoods(inst):
            canonical = _gauge_fixed(nbhd.q_size, nbhd.forms)
            for v in range(nbhd.q_size):
                assert _gauge_fixed(nbhd.q_size, flip_spin(nbhd.forms, v)) == canonical

    @given(inst=instances(max_n=10, max_m=9))
    @settings(max_examples=50)
    def test_they_are_a_gauge_transform_of_the_raw_forms(self, inst):
        for nbhd in all_neighborhoods(inst):
            canonical = _gauge_fixed(nbhd.q_size, nbhd.forms)
            assert [[(a, b) for a, b, _ in f] for f in canonical] == [
                [(a, b) for a, b, _ in f] for f in nbhd.forms
            ]
            assert dumb_combo_histogram(nbhd.q_size, canonical) == dumb_combo_histogram(
                nbhd.q_size, nbhd.forms
            )

    def test_spanning_forest_pairs_are_positive(self):
        # a path 0-1-2 plus a triangle 3-4-5: five forest pairs, one closing pair
        forms = (((0, 1, -1), (3, 4, -1)), ((1, 2, -1), (4, 5, 1)), ((3, 5, -1),))
        assert _gauge_fixed(6, forms) == (((0, 1, 1), (3, 4, 1)), ((1, 2, 1), (4, 5, 1)), ((3, 5, 1),))
        # the search from position 0 takes 0-1 and 0-2; 1-2 carries the cycle's sign
        odd_cycle = (((0, 1, -1),), ((1, 2, 1),), ((0, 2, 1),))
        assert _gauge_fixed(3, odd_cycle) == (((0, 1, 1),), ((1, 2, -1),), ((0, 2, 1),))

    @pytest.mark.parametrize("triples", [OCTET, ENTANGLED.triples()[:12]])
    def test_histograms_equal_the_loop_on_raw_forms(self, triples):
        base = base_instance(triples)
        rhs = np.array([resample_signs(base, seed=[5, t]).rhs_array for t in range(12)])
        plan = EvaluationPlan(base, "exact")
        plan.ensemble_w(0.3, len(rhs), lambda start, stop: rhs[start:stop])
        enumerated = 0
        for bits in rhs:
            for nbhd in all_neighborhoods(with_signs(base, bits)):
                want = loop_histogram(nbhd.q_size, nbhd.forms)
                assert_same(combo_histogram(nbhd), want)
                if nbhd.q_size != 2 * sum(nbhd.pair_counts):
                    enumerated += 1
                    canonical = _gauge_fixed(nbhd.q_size, nbhd.forms)
                    assert_same(plan._histograms[nbhd.q_size, canonical], want)
        # sign vectors share histograms through their canonical forms
        assert 0 < len(plan._histograms) < enumerated

    def test_raw_forms_of_one_gauge_class_share_one_held_entry(self, monkeypatch):
        nbhd = max(all_neighborhoods(ENTANGLED), key=lambda nb: nb.q_size)
        j, q_size = nbhd.focal_index, nbhd.q_size
        # each support spin flipped alone flips the signs of the clauses that hold it,
        # and each such sign vector comes with both focal signs
        flips = [np.zeros(ENTANGLED.m, bool)] + [
            (ENTANGLED.triple_array == v).any(axis=1) for v in nbhd.support
        ]
        focal = np.arange(ENTANGLED.m) == j
        rhs = np.array(
            [ENTANGLED.rhs_array ^ f ^ (focal & d) for f in flips for d in (0, 1)], dtype=np.uint8
        )
        walked = []
        real = analytic._layout_histograms
        monkeypatch.setattr(
            analytic, "_layout_histograms", lambda q, group: walked.extend(group) or real(q, group)
        )
        plan = EvaluationPlan(ENTANGLED, "exact")
        plan.ensemble_w(0.3, len(rhs), lambda start, stop: rhs[start:stop])
        keys = [plan.keys[i] for i in plan.key_indices(rhs)[:, j].tolist()]
        canonical = _gauge_fixed(q_size, nbhd.forms)
        assert {key[:2] for key in keys} == {(q_size, canonical)}
        assert {key[2] for key in keys} == {1, -1}
        assert walked.count(canonical) == 1
        held = plan._histograms[q_size, canonical]
        for v in range(q_size):
            forms = flip_spin(nbhd.forms, v)
            assert forms != nbhd.forms
            assert_same(loop_histogram(q_size, forms), held)


class TestSignKeys:
    """The keys a plan reads for a whole matrix of sign vectors at once."""

    @given(inst=instances(min_n=5, max_n=9, max_m=8))
    @settings(max_examples=30)
    def test_codes_decode_to_the_gauge_fixed_keys_of_every_sign_vector(self, inst):
        plan = EvaluationPlan(inst, "exact")
        rhs = code_bits(np.arange(1 << inst.m), inst.m)
        key_of = plan.key_indices(rhs)
        found = list(plan.keys)
        for bits, row in zip(rhs, key_of.tolist()):
            signed = with_signs(inst, bits)
            for j, i in enumerate(row):
                nbhd = build_neighborhood(signed, j)
                q, pairs = nbhd.q_size, sum(nbhd.pair_counts)
                if q == 2 * pairs:
                    assert found[i] == pairs
                else:
                    assert found[i] == (q, _gauge_fixed(q, nbhd.forms), nbhd.focal.sign)
        assert sorted(set(key_of.ravel().tolist())) == list(range(len(found)))

    def test_monte_carlo_clauses_read_minus_one(self):
        plan = EvaluationPlan(ENTANGLED, "auto", 12)
        key_of = plan.key_indices(code_bits(np.arange(5), ENTANGLED.m))
        assert plan.mc and (key_of[:, plan.mc] == -1).all()
        assert (np.delete(key_of, plan.mc, axis=1) >= 0).all()


class TestPlanShape:
    def test_factorized_clauses_need_no_neighborhood(self, monkeypatch):
        inst = generate_random(n=1000, m=200, d_bound=3, seed=2)
        tables = table_builds(monkeypatch)
        plan = EvaluationPlan(inst)
        plan.total(0.3)
        assert tables == [[]] and not plan.mc
        assert all(isinstance(key, int) for key in plan.keys)
        assert sorted(set(plan.key_of)) == list(range(len(plan.keys)))

    def test_each_plan_builds_one_table_of_its_unfactorized_clauses(self, monkeypatch):
        # clause 3 of the octet factorizes; q_max 4 sends three others to Monte Carlo
        inst = base_instance(OCTET)
        tables = table_builds(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("a plan built a neighborhood")

        monkeypatch.setattr(analytic, "build_neighborhood", refuse)
        monkeypatch.setattr(analytic, "Neighborhood", refuse)
        for mode, q_max in (("exact", None), ("auto", 4), ("mc", None)):
            tables.clear()
            plan = EvaluationPlan(inst, mode, q_max)
            plan.evaluate(0.3, 50)
            plan.ensemble_w(0.3, 3, lambda start, stop: code_bits(np.arange(start, stop), inst.m))
            assert tables == [list(range(8)) if mode == "mc" else [0, 1, 2, 4, 5, 6, 7]]

    def test_monte_carlo_clauses_keep_their_own_neighborhood(self):
        # every Monte Carlo term, through evaluate and total, is clause_term_mc of its own neighborhood
        for rhs in ([j % 2 for j in range(ENTANGLED.m)], random_rhs(ENTANGLED.m, 7)):
            inst = with_signs(ENTANGLED, rhs)
            for mode, q_max in (("mc", None), ("auto", 12)):
                plan = EvaluationPlan(inst, mode, q_max)
                assert plan.mc == [j for j, i in enumerate(plan.key_of) if i < 0]
                for gamma in (0.37, -1.3, 1e-7):
                    for samples, seed in ((1, 0), (7, 3), (500, 2)):
                        want = [
                            clause_term_mc(build_neighborhood(inst, j), gamma, samples, seed=[seed, j])
                            for j in plan.mc
                        ]
                        report = plan.evaluate(gamma, samples, seed)
                        assert [report.terms[j] for j in plan.mc] == want
                        exact = [t.value for t in report.terms if t.method == EXACT_METHOD]
                        total = math.fsum(exact + [t.value for t in want])
                        stderr = math.sqrt(math.fsum(t.stderr**2 for t in want))
                        assert (report.total, report.stderr) == (total, stderr)
                        assert plan.total(gamma, samples, seed) == (total, stderr)
        assert len(EvaluationPlan(inst, "mc").mc) == inst.m

    def test_an_ensemble_draws_monte_carlo_clauses_from_their_own_neighborhood(self):
        # q_max 4 sends three of the octet's clauses to Monte Carlo, drawn at total's defaults
        base = base_instance(OCTET)
        rhs = code_bits(np.array([0, 37, 150, 255]), base.m)
        plan = EvaluationPlan(base, "auto", 4)
        assert len(plan.mc) == 3
        for gamma in (0.3, 1e-7):
            w = plan.ensemble_w(gamma, len(rhs), lambda start, stop: rhs[start:stop])
            for t, bits in enumerate(rhs):
                inst = with_signs(base, bits)
                terms = EvaluationPlan(inst, "auto", 4).evaluate(gamma).terms
                exact = [term.value for term in terms if term.method == EXACT_METHOD]
                drawn = [
                    clause_term_mc(build_neighborhood(inst, j), gamma, MC_SAMPLES, seed=[0, j]).value for j in plan.mc
                ]
                assert w[t] == math.fsum(exact + drawn)

    def test_each_key_is_evaluated_once_per_scan_angle(self, monkeypatch):
        inst = generate_random(n=60, m=40, d_bound=3, seed=2)
        calls = []
        real = analytic._key_values
        monkeypatch.setattr(
            analytic,
            "_key_values",
            lambda keys, g, held: calls.extend((key, g) for key in keys) or real(keys, g, held),
        )
        result = scan(inst)
        keys = EvaluationPlan(inst).keys
        # the default grid is mirrored, so the scan evaluates its first half only
        gammas, half = result.schedule.gammas, len(result.schedule.gammas) // 2
        assert gammas[half:] == tuple(-g for g in reversed(gammas[:half]))
        assert Counter(calls) == Counter((key, g) for g in gammas[:half] for key in keys)

    def test_scan_builds_no_clause_terms(self, monkeypatch):
        inst = generate_random(n=60, m=40, d_bound=3, seed=2)
        want = [objective_expectation(inst, g).total for g in make_schedule(inst.d_bound).gammas]

        def refuse(*args, **kwargs):
            raise AssertionError("scan built a ClauseTerm")

        monkeypatch.setattr(analytic, "ClauseTerm", refuse)
        assert [p.value for p in scan(inst).points] == want

    def test_evaluate_is_objective_expectation(self):
        inst = with_signs(ENTANGLED, [(j // 3) % 2 for j in range(ENTANGLED.m)])
        plan = EvaluationPlan(inst, "auto", 12)
        for gamma in GAMMAS:
            report = plan.evaluate(gamma, 400, 2)
            assert report == objective_expectation(inst, gamma, q_max=12, mc_samples=400, seed=2)
            assert plan.total(gamma, 400, 2) == (report.total, report.stderr)


class TestEnsembleMemo:
    def _count_key_values(self, monkeypatch):
        calls = []
        real = analytic._key_values
        spy = lambda keys, g, held: calls.extend(keys) or real(keys, g, held)  # noqa: E731
        monkeypatch.setattr(analytic, "_key_values", spy)
        return calls

    def test_exhaustive_evaluates_each_distinct_key_once(self, monkeypatch):
        triples = OCTET[:6]
        base = base_instance(triples)
        distinct = set()
        for code in range(1 << base.m):
            rhs = [(code >> j) & 1 for j in range(base.m)]
            distinct.update(EvaluationPlan(with_signs(base, rhs), "exact").keys)
        calls = self._count_key_values(monkeypatch)
        ensemble_mean_exhaustive(triples, 0.4)
        assert len(calls) == len(set(calls)) == len(distinct) < base.m << base.m

    def test_monte_carlo_evaluates_each_distinct_key_once(self, monkeypatch):
        calls = self._count_key_values(monkeypatch)
        ensemble_mean_mc(OCTET, 0.3, trials=30, seed=2)
        assert len(calls) == len(set(calls)) < 30 * len(OCTET)

    def test_monte_carlo_evaluates_only_the_keys_its_trials_meet(self, monkeypatch):
        # the base instance's all-zero signs are no trial's, and their keys are not evaluated
        base = base_instance(parse(DEMO_PATH.read_text()).triples())
        want = set()
        for t in range(3):
            trial = with_signs(base, random_rhs(base.m, [3, t]))
            want.update(EvaluationPlan(trial, "auto", 8).keys)
        calls = self._count_key_values(monkeypatch)
        ensemble_mean_mc(base.triples(), 0.3, trials=3, seed=3, q_max=8)
        assert set(calls) == want
