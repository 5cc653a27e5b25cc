import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaoa_e3lin2.analytic import objective_expectation
from qaoa_e3lin2.instance import (
    Assignment,
    Clause,
    Instance,
    generate_random,
    parse,
    satisfied_count,
)
from qaoa_e3lin2.sampler import (
    brute_force_max,
    recommended_samples,
    run,
    satisfied_count_batch,
)
from qaoa_e3lin2.statevector import AngleParams, expectation, prepare, sample_bits

from conftest import bit_vectors, dumb_satisfied_count, instances

STATE18 = pathlib.Path(__file__).resolve().parent / "golden" / "state18.e3lin2"

# the smallest collection of parity equations that cannot all hold: the
# four left sides sum to zero over GF(2) while the right sides sum to 1
UNSAT_QUAD = Instance(
    n=6,
    clauses=(
        Clause(0, 1, 2, 1),
        Clause(0, 1, 3, 0),
        Clause(2, 4, 5, 0),
        Clause(3, 4, 5, 0),
    ),
)


class TestRecommendedSamples:
    @pytest.mark.parametrize("m, want", [(2, 2), (10, 24), (12, 30), (100, 461)])
    def test_pinned_values(self, m, want):
        assert recommended_samples(m) == want

    def test_monotone(self):
        values = [recommended_samples(m) for m in range(2, 60)]
        assert values == sorted(values)

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            recommended_samples(1)


class TestSatisfiedCountBatch:
    @given(inst=instances(max_n=8, max_m=6), data=st.data())
    @settings(max_examples=40)
    def test_matches_scalar_oracle(self, inst, data):
        rows = data.draw(st.lists(bit_vectors(inst.n), min_size=1, max_size=5))
        bits = np.array(rows, dtype=np.int64)
        counts = satisfied_count_batch(inst, bits)
        for row, count in zip(rows, counts):
            assert count == dumb_satisfied_count(inst, row)


class TestRun:
    def test_deterministic(self, tiny_instance):
        a = run(tiny_instance, 0.3, 0.7, samples=40, seed=5)
        b = run(tiny_instance, 0.3, 0.7, samples=40, seed=5)
        assert a == b
        assert a != run(tiny_instance, 0.3, 0.7, samples=40, seed=6)

    def test_predicted_mean_matches_statevector(self, tiny_instance):
        report = run(tiny_instance, 0.25, 0.6, samples=3, seed=1)
        state = prepare(tiny_instance, AngleParams(0.25, 0.6))
        want = tiny_instance.m / 2.0 + expectation(state, tiny_instance)
        assert report.predicted_mean == pytest.approx(want, abs=1e-12)

    def test_records_angles(self, tiny_instance):
        report = run(tiny_instance, -0.4, 0.2, samples=2, seed=0)
        assert report.gamma == -0.4
        assert report.beta == 0.2
        assert report.analytic_gamma == 0.4

    def test_analytic_angle_predicts_the_state(self, tiny_instance):
        # the analytic module's W at analytic_gamma is the spin-objective
        # expectation of the state prepared at (gamma, pi/4)
        report = run(tiny_instance, -0.35, math.pi / 4.0, samples=2, seed=0)
        w = objective_expectation(tiny_instance, report.analytic_gamma, mode="exact")
        assert report.predicted_mean == pytest.approx(
            tiny_instance.m / 2.0 + w.total, abs=1e-12
        )

    def test_zero_angles_sample_near_half(self):
        inst = generate_random(n=10, m=12, d_bound=3, seed=2)
        shots = 4000
        report = run(inst, 0.0, 0.0, samples=shots, seed=7)
        # uniform state: per-shot variance is m/4, so the mean of `shots`
        # draws is within 4 sigma of m/2 essentially always
        sigma = math.sqrt(inst.m / 4.0 / shots)
        assert abs(report.mean_satisfied - inst.m / 2.0) <= 4.0 * sigma
        assert report.predicted_mean == pytest.approx(inst.m / 2.0, abs=1e-12)

    def test_single_clause_peak_angle_always_satisfies(self):
        # state prepared at gamma = -pi/2, beta = pi/4 satisfies a lone
        # equation with probability 1
        inst = Instance(n=3, clauses=(Clause(0, 1, 2, 0),))
        report = run(inst, -math.pi / 2.0, math.pi / 4.0, samples=1000, seed=3)
        assert report.mean_satisfied == 1.0
        assert report.best_satisfied == 1
        assert report.predicted_mean == pytest.approx(1.0, abs=1e-12)

    def test_best_string_scores_best_count(self, tiny_instance):
        report = run(tiny_instance, 0.3, 0.8, samples=64, seed=11)
        assert satisfied_count(tiny_instance, report.best_string) == report.best_satisfied
        assert report.best_satisfied <= tiny_instance.m

    def test_best_string_is_a_copy_of_the_first_best_shot(self, tiny_instance):
        report = run(tiny_instance, 0.3, 0.8, samples=64, seed=11)
        bits = sample_bits(prepare(tiny_instance, AngleParams(gamma=0.3, beta=0.8)), 64, seed=11)
        best = int(np.argmax(satisfied_count_batch(tiny_instance, bits)))
        assert report.best_string.bits.tolist() == bits[best].tolist()
        assert report.best_string.bits.base is None

    @pytest.mark.parametrize("n", [18, 20])
    def test_draws_the_shots_of_sample_bits_on_the_prepared_state(self, n):
        inst = parse(STATE18.read_text(encoding="utf-8")) if n == 18 else generate_random(n, 26, 3, seed=1)
        state = prepare(inst, AngleParams(gamma=-0.2, beta=math.pi / 4))
        for seed in (0, 7):
            report = run(inst, -0.2, math.pi / 4, samples=10000, seed=seed)
            bits = sample_bits(state, 10000, seed=seed)
            counts = satisfied_count_batch(inst, bits)
            best = int(np.argmax(counts))
            assert report.best_string.bits.tolist() == bits[best].tolist()
            assert report.best_satisfied == counts[best]
            assert report.mean_satisfied == float(np.mean(counts))

    def test_draws_without_the_state_alive(self):
        # the state, then its probabilities beside it, then the probabilities
        # and choice's cumulative array: 24 bytes per amplitude, not 32
        inst = parse(STATE18.read_text(encoding="utf-8"))
        run(inst, -0.2, math.pi / 4, samples=1)  # the first draw imports numpy.random, which tracemalloc counts
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run(inst, -0.2, math.pi / 4, samples=10000, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 25 << inst.n

    def test_rejects_bad_samples(self, tiny_instance):
        with pytest.raises(ValueError):
            run(tiny_instance, 0.1, 0.1, samples=0)

    def test_respects_qubit_cap(self, tiny_instance):
        with pytest.raises(ValueError):
            run(tiny_instance, 0.1, 0.1, samples=4, n_max=5)


class TestBruteForceMax:
    def test_single_clause(self):
        inst = Instance(n=3, clauses=(Clause(0, 1, 2, 0),))
        count, best = brute_force_max(inst)
        assert count == 1
        assert best == Assignment([0, 0, 0])

    def test_contradictory_quad_caps_at_three(self):
        count, best = brute_force_max(UNSAT_QUAD)
        assert count == 3
        assert satisfied_count(UNSAT_QUAD, best) == 3

    def test_lowest_index_maximizer(self):
        # every assignment satisfies an empty instance; index 0 must win
        inst = Instance(n=4, clauses=())
        count, best = brute_force_max(inst)
        assert count == 0
        assert best == Assignment([0, 0, 0, 0])

    @given(inst=instances(max_n=9, max_m=7))
    @settings(max_examples=30)
    def test_matches_exhaustive_oracle(self, inst):
        count, best = brute_force_max(inst)
        want = max(
            dumb_satisfied_count(inst, [(code >> v) & 1 for v in range(inst.n)])
            for code in range(1 << inst.n)
        )
        assert count == want
        assert satisfied_count(inst, best) == count

    def test_expectation_never_beats_the_optimum(self):
        inst = generate_random(n=11, m=14, d_bound=3, seed=31)
        count, _ = brute_force_max(inst)
        for gamma in (0.1, 0.3, 0.5):
            w = objective_expectation(inst, gamma, mode="exact").total
            assert inst.m / 2.0 + w <= count + 1e-9

    def test_respects_cap(self):
        inst = generate_random(n=12, m=10, d_bound=2, seed=4)
        with pytest.raises(ValueError):
            brute_force_max(inst, n_max=11)
