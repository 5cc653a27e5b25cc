import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_e3lin2.analytic import (
    SIGN_PATTERNS,
    EvaluationPlan,
    build_neighborhood,
    combo_abs_moment,
    moment_checks,
)
from qaoa_e3lin2.instance import Clause, Instance, generate_random
from qaoa_e3lin2.schedule import (
    ASYMPTOTIC_NOTE,
    AngleSchedule,
    asymptotic_bound,
    chebyshev_node_property,
    grid_bound,
    guarantee,
    hypercontractive_bound,
    make_schedule,
    remainder_bound,
    scan,
    schedule_order,
)

from conftest import instances


class TestScheduleOrder:
    @pytest.mark.parametrize(
        "d_bound, k",
        [(1, 3), (2, 5), (3, 7), (4, 7), (5, 9), (7, 11)],
    )
    def test_pinned_orders(self, d_bound, k):
        assert schedule_order(d_bound) == k

    def test_always_odd_and_floored(self):
        for d in range(1, 60):
            k = schedule_order(d)
            assert k % 2 == 1
            assert k >= 3
            assert k >= 5.0 * math.log(d)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            schedule_order(0)


class TestMakeSchedule:
    def test_extreme_angle(self):
        sched = make_schedule(4)
        assert sched.k == 7
        assert sched.gammas[0] == 0.05
        assert len(sched.gammas) == 8

    def test_mirror_symmetry_is_exact(self):
        for d in (1, 2, 3, 4, 9):
            sched = make_schedule(d)
            for r in range(sched.k + 1):
                # bitwise: the negative half is constructed by negation
                assert sched.gammas[sched.k - r] == -sched.gammas[r]

    def test_angles_bounded_by_extreme(self):
        for d in (1, 2, 5):
            sched = make_schedule(d)
            top = 1.0 / (10.0 * math.sqrt(d))
            assert sched.gammas[0] == top
            assert all(abs(g) <= top for g in sched.gammas)

    def test_nodes_follow_cosine_spacing(self):
        sched = make_schedule(2)
        for r, g in enumerate(sched.gammas):
            want = math.cos(math.pi * r / sched.k) / (10.0 * math.sqrt(2))
            assert g == pytest.approx(want, abs=1e-15)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AngleSchedule(d_bound=2, k=4, gammas=(0.1,) * 5)
        with pytest.raises(ValueError):
            AngleSchedule(d_bound=2, k=3, gammas=(0.1, 0.05, -0.05))
        with pytest.raises(ValueError):
            make_schedule(0)


class TestRemainderBound:
    def test_zero_angle(self):
        assert remainder_bound(3, 7, 0.0) == 0.0

    @pytest.mark.parametrize("d_bound", [1, 2, 3, 4, 7])
    def test_extreme_angle_gives_nine_tenths_power(self, d_bound):
        k = schedule_order(d_bound)
        gamma = 1.0 / (10.0 * math.sqrt(d_bound))
        assert remainder_bound(d_bound, k, gamma) == pytest.approx(
            0.9 ** (k + 2), rel=1e-12
        )

    def test_unit_argument(self):
        # at |gamma| = 1/(9 sqrt(D)) the base is 1 and the bound is 1
        assert remainder_bound(2, 5, 1.0 / (9.0 * math.sqrt(2))) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_even_in_gamma(self):
        assert remainder_bound(3, 5, 0.04) == remainder_bound(3, 5, -0.04)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            remainder_bound(0, 3, 0.1)


class TestHypercontractiveBound:
    def test_pinned_value(self):
        assert hypercontractive_bound(1, 1.0) == 8.0

    def test_zero_moment(self):
        assert hypercontractive_bound(5, 0.0) == 0.0

    def test_rejects_negative_moment(self):
        with pytest.raises(ValueError):
            hypercontractive_bound(3, -0.5)

    @given(inst=instances(max_n=9, max_m=7), k=st.sampled_from([1, 3, 5]))
    @settings(max_examples=25)
    def test_dominates_exact_moments(self, inst, k):
        """E|combo|^(k+2) <= (k+1)^(k+2) E[combo^2]^((k+2)/2) on spin data."""
        for j in range(inst.m):
            nbhd = build_neighborhood(inst, j)
            report = moment_checks(nbhd)
            for pattern, s in zip(SIGN_PATTERNS, report.combo_second_moments):
                actual = combo_abs_moment(nbhd, pattern, k + 2)
                assert actual <= hypercontractive_bound(k, s) * (1 + 1e-12) + 1e-12


class TestGridBound:
    def test_hand_value(self):
        assert grid_bound(1000, 4, 7) == pytest.approx(
            1000.0 / (20.0 * 2.0 * 7.0) - 1000.0 * 0.9**9, rel=1e-15
        )

    def test_scales_linearly_in_m(self):
        assert grid_bound(500, 3, 7) == pytest.approx(
            0.5 * grid_bound(1000, 3, 7), rel=1e-15
        )

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            grid_bound(10, 0, 3)


class TestAsymptoticBound:
    def test_undefined_at_one(self):
        assert asymptotic_bound(100, 1) is None

    def test_hand_value(self):
        want = 1000.0 / (101.0 * 2.0 * math.log(4.0))
        assert asymptotic_bound(1000, 4) == pytest.approx(want, rel=1e-15)


class TestGuarantee:
    def test_desk_scale_report(self):
        rep = guarantee(1000, 4)
        assert rep.k == 7
        assert rep.grid_bound == pytest.approx(-383.84906042857153, rel=1e-12)
        assert rep.grid_bound_vacuous is True
        assert rep.asymptotic_bound == pytest.approx(3.5710273289330776, rel=1e-12)
        assert rep.asymptotic_note == ASYMPTOTIC_NOTE
        sched = make_schedule(4)
        assert rep.remainder_per_clause == remainder_bound(4, 7, sched.gammas[0])

    def test_d_one_has_no_asymptotic_number(self):
        rep = guarantee(50, 1)
        assert rep.asymptotic_bound is None
        assert rep.k == 3

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            guarantee(0, 3)

    def test_vacuity_flag_tracks_sign(self):
        # by k = 101 the geometric tail loses to 1/k and the bound turns positive
        rep_pos = grid_bound(1000, 2, 101)
        assert rep_pos > 0.0
        for d in (1, 2, 3, 4, 5):
            rep = guarantee(1000, d)
            assert rep.grid_bound_vacuous == (rep.grid_bound <= 0.0)


class TestScan:
    def test_single_clause_curve(self):
        inst = Instance(n=3, clauses=(Clause(0, 1, 2, 0),))
        result = scan(inst)
        assert result.schedule.d_bound == 1
        assert result.schedule.k == 3
        assert len(result.points) == 4
        for pt in result.points:
            assert pt.value == pytest.approx(0.5 * math.sin(pt.gamma), abs=1e-15)
        assert result.best_r == 0
        assert result.best_sign == 1
        assert result.best_gamma == result.schedule.gammas[0]
        assert result.best_value == pytest.approx(0.5 * math.sin(0.1), abs=1e-15)

    def test_best_is_max_abs_over_curve(self):
        inst = generate_random(n=12, m=14, d_bound=3, seed=77)
        result = scan(inst)
        assert result.best_value == max(abs(p.value) for p in result.points)
        assert result.best_value >= 0.0
        assert result.best_value == abs(result.points[result.best_r].value)
        sign = 1 if result.points[result.best_r].value >= 0 else -1
        assert result.best_sign == sign
        assert result.best_gamma == sign * result.schedule.gammas[result.best_r]

    def test_empty_instance_scans_to_zero(self):
        inst = Instance(n=3, clauses=())
        result = scan(inst)
        assert result.best_value == 0.0
        assert result.best_r == 0
        assert result.best_sign == 1

    def test_explicit_schedule_is_used(self):
        inst = Instance(n=3, clauses=(Clause(0, 1, 2, 1),))
        sched = make_schedule(3)
        result = scan(inst, schedule=sched)
        assert result.schedule is sched
        assert len(result.points) == sched.k + 1

    def test_mc_scan_is_deterministic(self):
        inst = generate_random(n=10, m=8, d_bound=2, seed=5)
        a = scan(inst, mode="mc", mc_samples=300, seed=2)
        b = scan(inst, mode="mc", mc_samples=300, seed=2)
        assert a == b


class TestOnePassScan:
    """``scan`` against the plan's total called at every node, compared with ``==`` and by sign bit."""

    INST = generate_random(n=14, m=16, d_bound=3, seed=9)
    # each with the plan calls it needs: every node not exactly the negation of its mirror;
    # at q_max 8, auto draws 8 of the 16 clauses by Monte Carlo
    SCHEDULES = [
        (make_schedule(3), 4),
        (AngleSchedule(d_bound=3, k=5, gammas=(0.11, 0.07, 0.02, -0.03, -0.07, -0.1)), 5),
        (AngleSchedule(d_bound=3, k=5, gammas=(0.11, 0.07, 0.02, -0.03, -0.06, -0.1)), 6),
    ]

    def pin(self, monkeypatch, inst, schedule, mode, q_max=None):
        """Assert the scan equals the plan node by node; return how many nodes called the plan."""
        plan = EvaluationPlan(inst, mode=mode, q_max=q_max)
        want = [plan.total(g, mc_samples=200, seed=4) for g in schedule.gammas]
        calls = []
        real = EvaluationPlan.total
        monkeypatch.setattr(EvaluationPlan, "total", lambda self, g, **kw: calls.append(g) or real(self, g, **kw))
        result = scan(inst, schedule, mode=mode, q_max=q_max, mc_samples=200, seed=4)
        got = [(p.value, p.stderr) for p in result.points]
        assert got == want
        assert [math.copysign(1.0, v) for v, _ in got] == [math.copysign(1.0, v) for v, _ in want]
        return len(calls)

    @pytest.mark.parametrize("schedule, calls", SCHEDULES)
    @pytest.mark.parametrize("mode, q_max", [("exact", None), ("auto", 8), ("mc", None)])
    def test_mirrored_nodes_take_their_mirrors_result(self, monkeypatch, schedule, calls, mode, q_max):
        assert self.pin(monkeypatch, self.INST, schedule, mode, q_max) == calls

    @pytest.mark.parametrize("mode", ["exact", "auto", "mc"])
    def test_a_zero_w_is_never_mirrored(self, monkeypatch, mode):
        # W is 0.0 on the empty instance and at gamma 0: mirrored, it would read -0.0
        empty = make_schedule(1)
        assert self.pin(monkeypatch, Instance(n=3, clauses=()), empty, mode) == empty.k + 1
        zeros = AngleSchedule(d_bound=1, k=3, gammas=(0.1, 0.0, -0.0, -0.1))
        assert self.pin(monkeypatch, self.INST, zeros, mode) == 3


class TestChebyshevNodeProperty:
    def test_zero_coefficients(self):
        check = chebyshev_node_property(3)
        assert check
        assert check.checked == 1
        assert check.min_value == pytest.approx(1.0, abs=1e-15)
        assert check.threshold == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_known_adversarial_vector(self):
        # x - x^3 on the k=3 nodes {1, 1/2, -1/2, -1} peaks at 3/8,
        # comfortably above the 1/3 floor
        check = chebyshev_node_property(3, coefficients=(0.0, -1.0))
        assert check
        assert check.min_value == pytest.approx(0.375, abs=1e-15)

    def test_coarse_grid_never_beats_the_floor(self):
        best = math.inf
        for a in np.linspace(-3.0, 3.0, 41):
            for b in np.linspace(-3.0, 3.0, 41):
                check = chebyshev_node_property(3, coefficients=(float(a), float(b)))
                best = min(best, check.min_value)
                assert check.ok
        assert best >= 1.0 / 3.0 - 1e-12
        # the grid contains (0, -1), so the known near-optimum is reached
        assert best <= 0.375 + 1e-12

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_random_draws(self, k):
        check = chebyshev_node_property(k, trials=500, seed=1)
        assert check
        assert check.checked == 500
        assert check.min_value >= check.threshold - 1e-12
        assert len(check.worst_coefficients) == k - 1

    def test_supplied_vector_counts_alongside_draws(self):
        check = chebyshev_node_property(5, coefficients=(0.0,) * 4, trials=10, seed=0)
        assert check.checked == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_node_property(4)
        with pytest.raises(ValueError):
            chebyshev_node_property(1)
        with pytest.raises(ValueError):
            chebyshev_node_property(3, coefficients=(1.0,))
