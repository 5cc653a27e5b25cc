import dataclasses
import gc
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_e3lin2 import analytic
from qaoa_e3lin2.analytic import (
    SIGN_PATTERNS,
    EvaluationPlan,
    Neighborhood,
    SupportTooLargeError,
    build_neighborhood,
    clause_term_exact,
    clause_term_mc,
    combo_abs_moment,
    combo_histogram,
    cosine_product_mean,
    moment_checks,
    objective_expectation,
)
from qaoa_e3lin2.instance import Clause, Instance, generate_random, random_rhs, with_signs
from qaoa_e3lin2.schedule import scan
from qaoa_e3lin2.typical import base_instance

from conftest import (
    dumb_clause_term,
    dumb_combo_histogram,
    dumb_objective,
    instances,
    loop_eval_forms,
)
from test_topology import OCTET

#: Two variable-disjoint octets, equal but for the sign of their first clause.
TWINS = Instance(
    n=16,
    clauses=tuple(
        Clause(a + 8 * i, b + 8 * i, c + 8 * i, int(j == 0 and i == 0))
        for i in range(2)
        for j, (a, b, c) in enumerate(OCTET)
    ),
)


def form_table(nb):
    """(3, 2^q) form values on every support assignment, by the pair loop."""
    return loop_eval_forms(nb.forms, np.arange(1 << nb.q_size, dtype=np.int64))


class TestBuildNeighborhood:
    def test_overlap_partition(self, tiny_instance):
        nb = build_neighborhood(tiny_instance, 0)
        assert nb.focal_index == 0
        assert nb.focal == Clause(0, 1, 2, 0)
        # clause 1 (0,3,4) attaches to focal slot 0; clause 3 (2,6,7) to
        # slot 2; clause 2 shares two variables and cancels; clause 4 none
        assert nb.pair_counts == (1, 0, 1)
        assert nb.cancelled == (2,)
        assert nb.support == (3, 4, 6, 7)
        assert nb.forms[0] == ((0, 1, -1),)
        assert nb.forms[1] == ()
        assert nb.forms[2] == ((2, 3, -1),)

    @pytest.mark.parametrize("j", [-1, 5])
    def test_index_out_of_range(self, tiny_instance, j):
        with pytest.raises(IndexError, match=f"^clause_index {j} out of range for m=5$"):
            build_neighborhood(tiny_instance, j)

    @given(inst=instances(max_n=9, max_m=7))
    @settings(max_examples=50)
    def test_support_excludes_focal_variables(self, inst):
        for j in range(inst.m):
            nb = build_neighborhood(inst, j)
            assert not set(nb.support) & set(nb.focal.triple)
            assert nb.q_size <= 2 * sum(nb.pair_counts)


class TestHistogram:
    def test_counts_sum_to_support_size(self, tiny_instance):
        nb = build_neighborhood(tiny_instance, 0)
        values, counts = combo_histogram(nb)
        assert counts.sum() == 1 << nb.q_size
        assert values.shape[1] == 3

    def test_matches_full_table(self, tiny_instance):
        for j in range(tiny_instance.m):
            nb = build_neighborhood(tiny_instance, j)
            table = form_table(nb)
            values, counts = combo_histogram(nb)
            seen = {}
            for col in range(table.shape[1]):
                key = tuple(int(x) for x in table[:, col])
                seen[key] = seen.get(key, 0) + 1
            assert seen == {
                tuple(int(x) for x in values[i]): int(counts[i])
                for i in range(len(counts))
            }

    @given(inst=instances(max_n=9, max_m=7))
    @settings(max_examples=30)
    def test_matches_spin_loop(self, inst):
        # a reference that shares no code with the parity grid, which
        # combo_histogram enumerates through
        for j in range(inst.m):
            nb = build_neighborhood(inst, j)
            values, counts = combo_histogram(nb)
            got = {tuple(int(x) for x in v): int(c) for v, c in zip(values, counts)}
            assert got == dumb_combo_histogram(nb.q_size, nb.forms)

    def test_results_are_read_only(self, tiny_instance):
        values, counts = combo_histogram(build_neighborhood(tiny_instance, 0))
        with pytest.raises(ValueError):
            counts[0] = 7


class TestClauseTermExact:
    def test_empty_neighborhood_is_half_sine(self):
        inst = Instance(n=3, clauses=(Clause(0, 1, 2, 0),))
        nb = build_neighborhood(inst, 0)
        for g in (0.0, 0.3, -1.1, math.pi / 2):
            assert clause_term_exact(nb, g).value == pytest.approx(
                0.5 * math.sin(g), abs=1e-15
            )

    @given(inst=instances(max_n=9, max_m=7), gamma=st.floats(-1.5, 1.5))
    @settings(max_examples=60)
    def test_matches_raw_spin_loop(self, inst, gamma):
        for j in range(inst.m):
            nb = build_neighborhood(inst, j)
            term = clause_term_exact(nb, gamma)
            assert term.value == pytest.approx(
                dumb_clause_term(inst, j, gamma), abs=1e-12
            )
            assert abs(term.value) <= 0.5 + 1e-12
            assert term.stderr == 0.0

    def test_disjoint_support_collapses_to_closed_form(self):
        # focal (0,1,2) with one neighbor per variable, all pairs disjoint
        inst = Instance(
            n=9,
            clauses=(
                Clause(0, 1, 2, 1),
                Clause(0, 3, 4, 0),
                Clause(1, 5, 6, 1),
                Clause(2, 7, 8, 0),
            ),
        )
        nb = build_neighborhood(inst, 0)
        assert nb.q_size == 2 * sum(nb.pair_counts)
        for g in (0.2, 0.9):
            assert clause_term_exact(nb, g).value == pytest.approx(
                0.5 * math.sin(g) * math.cos(g) ** 3, abs=1e-15
            )

    def test_support_cap(self, tiny_instance):
        # clause 3 (2,6,7) has two neighbor pairs sharing variable 1, so its
        # support (q=3) is smaller than 2*pairs and enumeration is required
        nb = build_neighborhood(tiny_instance, 3)
        assert nb.q_size == 3
        assert nb.q_size < 2 * sum(nb.pair_counts)
        with pytest.raises(SupportTooLargeError):
            clause_term_exact(nb, 0.2, q_max=2)


class TestFourSineStructure:
    @given(
        d=st.sampled_from([-1, 1]),
        c=st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)),
        gamma=st.floats(-2.0, 2.0),
    )
    def test_pattern_sum_equals_product_form(self, d, c, gamma):
        c1, c2, c3 = c
        total = sum(
            math.sin(gamma * (d + s1 * c1 + s2 * c2 + s3 * c3))
            for s1, s2, s3 in SIGN_PATTERNS
        )
        product = 4.0 * (
            math.sin(gamma * d)
            * math.cos(gamma * c1)
            * math.cos(gamma * c2)
            * math.cos(gamma * c3)
            - math.cos(gamma * d)
            * math.sin(gamma * c1)
            * math.sin(gamma * c2)
            * math.sin(gamma * c3)
        )
        assert total == pytest.approx(product, abs=1e-12)


class TestTwoBitOverlapCancellation:
    def test_overlap_two_clause_never_enters(self):
        base = Instance(
            n=8,
            clauses=(
                Clause(0, 1, 2, 0),
                Clause(0, 3, 4, 1),
                Clause(2, 5, 6, 0),
            ),
        )
        extended = Instance(
            n=8,
            clauses=base.clauses + (Clause(1, 2, 7, 1),),
        )
        nb_base = build_neighborhood(base, 0)
        nb_ext = build_neighborhood(extended, 0)
        assert nb_ext.cancelled == (3,)
        assert nb_ext.forms == nb_base.forms
        assert nb_ext.support == nb_base.support
        for g in np.linspace(-1.2, 1.2, 9):
            a = clause_term_exact(nb_base, float(g)).value
            b = clause_term_exact(nb_ext, float(g)).value
            assert a == b  # bitwise, not approximately

    def test_cancellation_on_entangled_support(self):
        # neighbors share support variable 4, so the enumeration route runs
        base = Instance(
            n=8,
            clauses=(
                Clause(0, 1, 2, 0),
                Clause(0, 3, 4, 1),
                Clause(2, 4, 6, 0),
            ),
        )
        extended = Instance(
            n=8,
            clauses=base.clauses + (Clause(1, 2, 7, 0),),
        )
        nb_base = build_neighborhood(base, 0)
        nb_ext = build_neighborhood(extended, 0)
        assert nb_base.q_size < 2 * sum(nb_base.pair_counts)
        assert nb_ext.cancelled == (3,)
        for g in np.linspace(-1.2, 1.2, 9):
            a = clause_term_exact(nb_base, float(g)).value
            b = clause_term_exact(nb_ext, float(g)).value
            assert a == b


class TestClauseTermMC:
    def test_deterministic(self, tiny_instance):
        # clause 3 carries two pairs in one slot, so c1 ranges over
        # {-2, 0, 2} and the estimator genuinely fluctuates; single-pair
        # forms give |c| = 1 always and a zero-variance estimator
        nb = build_neighborhood(tiny_instance, 3)
        a = clause_term_mc(nb, 0.4, samples=400, seed=11)
        b = clause_term_mc(nb, 0.4, samples=400, seed=11)
        assert a == b
        assert a.stderr > 0.0
        assert a != clause_term_mc(nb, 0.4, samples=400, seed=12)

    def test_close_to_exact(self, tiny_instance):
        for j in range(tiny_instance.m):
            nb = build_neighborhood(tiny_instance, j)
            exact = clause_term_exact(nb, 0.5).value
            mc = clause_term_mc(nb, 0.5, samples=20000, seed=3)
            tol = max(5 * mc.stderr, 1e-9)
            assert abs(mc.value - exact) <= tol

    def test_empty_support_has_zero_stderr(self):
        inst = Instance(n=3, clauses=(Clause(0, 1, 2, 1),))
        nb = build_neighborhood(inst, 0)
        mc = clause_term_mc(nb, 0.7, samples=50, seed=0)
        assert mc.stderr == 0.0
        assert mc.value == pytest.approx(clause_term_exact(nb, 0.7).value, abs=1e-12)

    def test_rejects_bad_samples(self, tiny_instance):
        nb = build_neighborhood(tiny_instance, 0)
        with pytest.raises(ValueError):
            clause_term_mc(nb, 0.1, samples=0)


class TestObjectiveExpectation:
    def test_terms_sum_to_total(self, tiny_instance):
        report = objective_expectation(tiny_instance, 0.33, mode="exact")
        assert report.total == pytest.approx(
            math.fsum(t.value for t in report.terms), abs=1e-15
        )
        assert report.m == tiny_instance.m
        assert report.stderr == 0.0

    @given(inst=instances(max_n=9, max_m=6), gamma=st.floats(-1.0, 1.0))
    @settings(max_examples=40)
    def test_matches_raw_loop_total(self, inst, gamma):
        report = objective_expectation(inst, gamma, mode="exact")
        assert report.total == pytest.approx(dumb_objective(inst, gamma), abs=1e-11)

    def test_mode_validation(self, tiny_instance):
        with pytest.raises(ValueError):
            objective_expectation(tiny_instance, 0.1, mode="guess")

    def test_exact_mode_fails_on_small_cap(self, tiny_instance):
        with pytest.raises(SupportTooLargeError):
            objective_expectation(tiny_instance, 0.1, mode="exact", q_max=2)

    def test_auto_mode_falls_back_to_mc(self, tiny_instance):
        report = objective_expectation(
            tiny_instance, 0.1, mode="auto", q_max=2, mc_samples=500, seed=4
        )
        methods = {t.method for t in report.terms}
        assert methods == {"exact-enumeration", "monte-carlo"}
        assert report.stderr > 0.0

    def test_mc_mode_seeds_clauses_independently(self):
        # two disjoint copies of the same two-neighbor star: identical
        # neighborhoods up to relabeling, so exact terms agree bitwise
        # while the per-clause MC streams must not coincide
        inst = Instance(
            n=14,
            clauses=(
                Clause(0, 1, 2, 0),
                Clause(0, 3, 4, 0),
                Clause(0, 5, 6, 0),
                Clause(7, 8, 9, 0),
                Clause(7, 10, 11, 0),
                Clause(7, 12, 13, 0),
            ),
        )
        report = objective_expectation(inst, 0.2, mode="mc", mc_samples=200, seed=9)
        again = objective_expectation(inst, 0.2, mode="mc", mc_samples=200, seed=9)
        assert report == again
        exact = objective_expectation(inst, 0.2, mode="exact")
        assert exact.terms[0].value == exact.terms[3].value
        assert report.terms[0].value != report.terms[3].value


class TestMoments:
    def test_form_moments_match_pair_counts(self, tiny_instance):
        for j in range(tiny_instance.m):
            nb = build_neighborhood(tiny_instance, j)
            rep = moment_checks(nb)
            assert rep.form_means == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
            assert rep.form_second_moments == pytest.approx(nb.pair_counts, abs=1e-12)

    @given(inst=instances(max_n=9, max_m=7))
    @settings(max_examples=30)
    def test_combo_second_moments_by_direct_expansion(self, inst):
        for j in range(inst.m):
            nb = build_neighborhood(inst, j)
            rep = moment_checks(nb)
            table = form_table(nb)
            d = nb.focal.sign
            size = table.shape[1]
            for pattern, reported in zip(SIGN_PATTERNS, rep.combo_second_moments):
                s1, s2, s3 = pattern
                combo = d + s1 * table[0] + s2 * table[1] + s3 * table[2]
                assert reported == pytest.approx(
                    float(np.mean(combo.astype(float) ** 2)), abs=1e-12
                )

    def test_abs_moment_against_table(self, tiny_instance):
        nb = build_neighborhood(tiny_instance, 4)
        table = form_table(nb)
        d = nb.focal.sign
        combo = d + table[0] + table[1] + table[2]
        want = float(np.mean(np.abs(combo.astype(float)) ** 5))
        assert combo_abs_moment(nb, (1, 1, 1), 5) == pytest.approx(want, abs=1e-12)


class TestCosineProductMean:
    @given(inst=instances(max_n=9, max_m=6), gamma=st.floats(-1.2, 1.2))
    @settings(max_examples=30)
    def test_focal_sign_average_drops_odd_part(self, inst, gamma):
        """Averaging over the focal sign leaves (1/2) sin(gamma) E[prod cos]."""
        for j in range(inst.m):
            nb = build_neighborhood(inst, j)
            flipped = dataclasses.replace(
                nb, focal=dataclasses.replace(nb.focal, rhs=1 - nb.focal.rhs)
            )
            avg = 0.5 * (
                clause_term_exact(nb, gamma).value
                + clause_term_exact(flipped, gamma).value
            )
            want = 0.5 * math.sin(gamma) * cosine_product_mean(nb, gamma)
            assert avg == pytest.approx(want, abs=1e-12)


def pair_layout(forms):
    """The forms' pair positions, signs aside: with q, a pair layout."""
    return tuple(tuple((a, b) for a, b, _ in form) for form in forms)


class TestPerformanceShape:
    """A plan counts each histogram once and holds it for as long as the plan lives."""

    @staticmethod
    def _walks(monkeypatch):
        walks = []
        real = analytic._layout_histograms
        monkeypatch.setattr(
            analytic,
            "_layout_histograms",
            lambda q, group: walks.append((q, pair_layout(group[0]), len(group))) or real(q, group),
        )
        return walks

    def test_histogram_is_reused_across_angles(self, monkeypatch):
        # six variable-disjoint octets under random signs: a few pair layouts, several forms each
        tiled = base_instance([(a + 8 * i, b + 8 * i, c + 8 * i) for i in range(6) for a, b, c in OCTET])
        inst = with_signs(tiled, random_rhs(tiled.m, 3))
        walks = self._walks(monkeypatch)
        assert len(scan(inst).points) > 2
        held = {key[:2] for key in EvaluationPlan(inst).keys if not isinstance(key, int)}
        layouts = Counter((q, pair_layout(forms)) for q, forms in held)
        assert sorted(walks) == sorted((q, layout, k) for (q, layout), k in layouts.items())
        assert max(k for _, _, k in walks) > 1

    def test_focal_sign_does_not_split_a_held_histogram(self, monkeypatch):
        walks = self._walks(monkeypatch)
        plan = EvaluationPlan(TWINS)
        first, twin = plan.keys[plan.key_of[0]], plan.keys[plan.key_of[8]]
        assert first[:2] == twin[:2] and first[2] == -twin[2]
        for gamma in (0.3, -0.7):
            plan.total(gamma)
        enumerated = [key for key in plan.keys if not isinstance(key, int)]
        assert set(plan._histograms) == {key[:2] for key in enumerated}
        assert len(plan._histograms) < len(enumerated)
        assert sum(k for _, _, k in walks) == len(plan._histograms)

    def test_held_histograms_are_freed_with_their_plan(self):
        plan = EvaluationPlan(TWINS)
        plan.total(0.3)
        held = [weakref.ref(array) for hist in plan._histograms.values() for array in hist]
        assert held and all(ref() is not None for ref in held)
        del plan
        gc.collect()
        assert all(ref() is None for ref in held)

    def test_two_plans_count_independently(self, monkeypatch):
        widths = []
        real = analytic._component_counts
        monkeypatch.setattr(
            analytic, "_component_counts", lambda *args: widths.append(args[2]) or real(*args)
        )
        first = EvaluationPlan(TWINS)
        want = first.total(0.3)
        assert widths == []
        # the next plan goes by components from its first histogram, with nothing to clear
        monkeypatch.setattr(analytic, "_WALK_MAX_Q", -1)
        second = EvaluationPlan(TWINS)
        assert second.total(0.3) == want
        assert len(widths) == len(second._histograms) > 0
        # and the first plan still reads its own walked histograms
        assert first.total(-0.3) == second.total(-0.3)
        assert len(widths) == len(second._histograms)
