"""End-to-end acceptance checks, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the one-line-per-criterion
view, or add ``-s`` to see the ACCEPTANCE summary lines. Everything is seeded;
a failure here is a real regression, not noise.
"""

import json
import math
import time

import numpy as np

from qaoa_e3lin2.analytic import (
    SIGN_PATTERNS,
    build_neighborhood,
    clause_term_exact,
    combo_abs_moment,
    moment_checks,
    objective_expectation,
)
from qaoa_e3lin2.instance import (
    Clause,
    Instance,
    generate_random,
    parse,
    serialize,
)
from qaoa_e3lin2.sampler import run as sampler_run
from qaoa_e3lin2.sampler import satisfied_count_batch
from qaoa_e3lin2.schedule import (
    chebyshev_node_property,
    guarantee,
    hypercontractive_bound,
    scan,
)
from qaoa_e3lin2.statevector import AngleParams, expectation, prepare, sample
from qaoa_e3lin2.typical import (
    ensemble_mean_exhaustive,
    ensemble_mean_mc,
    optimal_gamma_typical,
    sandwich_bounds,
)

from conftest import run_cli

# --- shared collections ---------------------------------------------------

# dense n=8 octet with genuinely positive sign-ensemble variance
OCTET = ((4, 5, 7), (0, 6, 7), (3, 4, 6), (4, 6, 7), (1, 5, 7), (0, 3, 5), (0, 1, 5), (0, 2, 3))

# 25 variable-disjoint copies of the octet: m=200 with additive variance
TILED = tuple((a + 8 * i, b + 8 * i, c + 8 * i) for i in range(25) for a, b, c in OCTET)

INDEPENDENT_TRIO = ((0, 1, 2), (0, 1, 3), (0, 1, 4))
DEPENDENT_QUAD = ((0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5))


def _report(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {index} {name}: {detail}"


def _harness_instances(count: int, seed0: int = 1000):
    """Bounded-occurrence instances in the desk-scale acceptance range."""
    rng = np.random.default_rng(0)
    out = []
    for i in range(count):
        d = (1, 2, 3)[i % 3]
        n = int(rng.integers(8, 15))
        m = min(25, (5 * n * (d + 1)) // 18)
        out.append(generate_random(n=n, m=m, d_bound=d, seed=seed0 + i))
    return out


# --- criteria -------------------------------------------------------------


def test_01_oracle_equivalence():
    """Analytic W matches the dense statevector on 50 instances, 20 angles."""
    t0 = time.time()
    worst = 0.0
    for inst in _harness_instances(50):
        for g in np.linspace(-0.6, 0.6, 20):
            w = objective_expectation(inst, float(g), mode="exact").total
            state = prepare(inst, AngleParams(gamma=-float(g), beta=math.pi / 4))
            worst = max(worst, abs(w - expectation(state, inst)))
    elapsed = time.time() - t0
    _report(
        1,
        "oracle-equivalence",
        worst <= 1e-9 and elapsed < 120.0,
        f"worst |analytic - statevector| = {worst:.3e}, {elapsed:.1f}s",
    )


def test_02_overlap_two_cancellation():
    """Adding a two-shared-variable clause never moves a clause term, bitwise."""
    slot_patterns = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
        (0, 1, 1), (1, 1, 1), (2, 0, 0), (2, 1, 0), (2, 1, 1),
    ]
    rng = np.random.default_rng(500)
    cases = 0
    for slots in slot_patterns:
        for entangle in (False, True):
            focal = Clause(0, 1, 2, int(rng.integers(2)))
            clauses = [focal]
            fresh = 3
            reusable = None
            for var, count in zip((0, 1, 2), slots):
                for _ in range(count):
                    if entangle and reusable is not None:
                        u, v = reusable, fresh
                        fresh += 1
                    else:
                        u, v = fresh, fresh + 1
                        fresh += 2
                    a, b, c = sorted((var, u, v))
                    clauses.append(Clause(a, b, c, int(rng.integers(2))))
                    reusable = v
            base = Instance(n=fresh + 1, clauses=tuple(clauses))
            extra = Clause(0, 1, fresh, int(rng.integers(2)))
            ext = Instance(n=fresh + 1, clauses=base.clauses + (extra,))
            nb_base = build_neighborhood(base, 0)
            nb_ext = build_neighborhood(ext, 0)
            assert nb_ext.cancelled == (base.m,)
            assert nb_ext.forms == nb_base.forms
            for g in np.linspace(-1.0, 1.0, 7):
                a_val = clause_term_exact(nb_base, float(g)).value
                b_val = clause_term_exact(nb_ext, float(g)).value
                assert a_val == b_val, (slots, entangle, g)
            cases += 1
    _report(2, "overlap-2-cancellation", cases == 20, f"{cases} constructed cases")


def test_03_oddness():
    """W(-gamma) = -W(gamma) to 1e-12 across instances and angles."""
    worst = 0.0
    for inst in _harness_instances(15, seed0=2000):
        for g in np.linspace(0.05, 0.9, 10):
            plus = objective_expectation(inst, float(g), mode="exact").total
            minus = objective_expectation(inst, -float(g), mode="exact").total
            worst = max(worst, abs(plus + minus))
    _report(3, "oddness", worst <= 1e-12, f"worst |W(g) + W(-g)| = {worst:.3e}")


def test_04_single_clause_exactness():
    """An isolated equation reaches W(pi/2) = 1/2, and the state at the
    matching angles satisfies it on every one of 1000 shots."""
    inst = Instance(n=3, clauses=(Clause(0, 1, 2, 0),))
    w = objective_expectation(inst, math.pi / 2, mode="exact").total
    report = sampler_run(inst, gamma=-math.pi / 2, beta=math.pi / 4, samples=1000, seed=0)
    ok = abs(w - 0.5) <= 1e-12 and report.mean_satisfied == 1.0
    _report(
        4,
        "single-clause-exactness",
        ok,
        f"W(pi/2) = {w!r}, {report.samples} shots all satisfied: {report.mean_satisfied == 1.0}",
    )


def test_05_grid_guarantee():
    """Scan beats the grid bound whenever it is positive; at desk scale the
    bound is negative and must be flagged vacuous, never clamped."""
    rng = np.random.default_rng(3)
    vacuous_count = 0
    for i in range(30):
        d = (2, 3, 4)[i % 3]
        n = int(rng.integers(9, 13))
        m = min(14, (n * (d + 1)) // 3 - 1)
        inst = generate_random(n=n, m=m, d_bound=d, seed=3000 + i)
        result = scan(inst)
        rep = guarantee(inst.m, result.schedule.d_bound)
        assert rep.grid_bound_vacuous == (rep.grid_bound <= 0.0)
        assert result.best_value >= rep.grid_bound - 1e-12
        if rep.grid_bound_vacuous:
            vacuous_count += 1
        else:
            assert result.best_value >= rep.grid_bound
    _report(
        5,
        "grid-guarantee",
        vacuous_count == 30,
        f"30 scans above bound; all 30 bounds negative and flagged vacuous",
    )


def test_06_ensemble_closed_form():
    """Sign-ensemble mean equals the closed form: exhaustively to 1e-10 on
    twenty m<=10 collections, and by seeded Monte Carlo within
    max(4 stderr, 1e-9) up to m=200."""
    worst_exhaustive = 0.0
    count = 0
    fixed = [INDEPENDENT_TRIO, DEPENDENT_QUAD, OCTET]
    for triples in fixed:
        rep = ensemble_mean_exhaustive(triples, 0.43)
        worst_exhaustive = max(worst_exhaustive, abs(rep.mean_w - rep.closed_form_mean))
        count += 1
    rng = np.random.default_rng(7)
    while count < 20:
        d = int(rng.integers(2, 5))
        n = int(rng.integers(7, 11))
        m = min(10, (n * (d + 1)) // 3 - 1)
        inst = generate_random(n=n, m=m, d_bound=d, seed=6000 + count)
        rep = ensemble_mean_exhaustive(inst.triples(), 0.43)
        worst_exhaustive = max(worst_exhaustive, abs(rep.mean_w - rep.closed_form_mean))
        count += 1
    assert worst_exhaustive <= 1e-10

    ladder = [
        ("octet-tiled-200", TILED, optimal_gamma_typical(3), 11),
        ("dense-13-24", generate_random(n=13, m=24, d_bound=5, seed=21).triples(), 0.35, 2),
        ("mid-16-40", generate_random(n=16, m=40, d_bound=7, seed=33).triples(), 0.25, 5),
        ("sparse-300-200", generate_random(n=300, m=200, d_bound=3, seed=9).triples(), 0.3, 1),
    ]
    details = []
    for label, triples, g, seed in ladder:
        rep = ensemble_mean_mc(triples, g, trials=500, seed=seed)
        dev = abs(rep.mean_w - rep.closed_form_mean)
        tol = max(4.0 * rep.stderr, 1e-9)
        assert dev <= tol, (label, dev, tol)
        details.append(f"{label}: dev {dev:.2e} <= {tol:.2e}")
    _report(
        6,
        "ensemble-closed-form",
        True,
        f"20 exhaustive (worst {worst_exhaustive:.1e}); " + "; ".join(details),
    )


def test_07_sandwich_and_optimum():
    """The 3D sandwich brackets the ensemble mean on a 50-point angle grid,
    and at D=100 the lower bound peaks within 1e-3 of 1/sqrt(3D)."""
    collections = [
        OCTET,
        generate_random(n=10, m=12, d_bound=3, seed=70).triples(),
        generate_random(n=9, m=9, d_bound=2, seed=71).triples(),
    ]
    from qaoa_e3lin2.typical import base_instance, collection_closed_form

    for triples in collections:
        base = base_instance(triples)
        for g in np.linspace(0.01, math.pi / 2 - 0.01, 50):
            mean = collection_closed_form(base, float(g))
            lo, hi = sandwich_bounds(base.m, base.d_bound, float(g))
            assert lo - 1e-12 <= mean <= hi + 1e-12, (triples, g)

    d = 100
    gammas = np.linspace(1e-4, 0.2, 40001)
    lower = np.sin(gammas) * np.cos(gammas) ** (3 * d)
    best = float(gammas[int(np.argmax(lower))])
    target = optimal_gamma_typical(d)
    _report(
        7,
        "sandwich-and-optimum",
        abs(best - target) <= 1e-3,
        f"argmax {best:.6f} vs 1/sqrt(3D) {target:.6f}",
    )


def test_08_variance_bound():
    """Empirical ensemble variance stays under (1/4) m (6D+3)(D+1) at 2000
    seeded trials on every collection with genuine spread."""
    details = []
    for label, triples, g in [
        ("octet", OCTET, 0.52),
        ("dense-13-24", generate_random(n=13, m=24, d_bound=5, seed=21).triples(), 0.35),
        ("octet-tiled-200", TILED, optimal_gamma_typical(3)),
    ]:
        rep = ensemble_mean_mc(triples, g, trials=2000, seed=13)
        assert rep.variance <= rep.variance_bound, (label, rep.variance, rep.variance_bound)
        details.append(f"{label}: {rep.variance:.3g} <= {rep.variance_bound:.3g}")
    _report(8, "variance-bound", True, "; ".join(details))


def test_09_moment_inequalities():
    """Hypercontractive moment bound holds on 100 random neighborhoods for
    k in {3, 5}; the Chebyshev node inequality survives 1000 random
    polynomials for k in {3, 5, 7} with slack >= -1e-12."""
    checked = 0
    i = 0
    while checked < 100:
        inst = generate_random(n=9, m=7, d_bound=3, seed=9000 + i)
        i += 1
        for j in range(inst.m):
            if checked >= 100:
                break
            nbhd = build_neighborhood(inst, j)
            rep = moment_checks(nbhd)
            for k in (3, 5):
                for pattern, s in zip(SIGN_PATTERNS, rep.combo_second_moments):
                    actual = combo_abs_moment(nbhd, pattern, k + 2)
                    bound = hypercontractive_bound(k, s)
                    assert actual <= bound * (1 + 1e-12) + 1e-12, (j, k, pattern)
            checked += 1

    worst_slack = math.inf
    for k in (3, 5, 7):
        check = chebyshev_node_property(k, trials=1000, seed=k)
        assert check.ok
        worst_slack = min(worst_slack, check.min_value - check.threshold)
    _report(
        9,
        "moment-inequalities",
        worst_slack >= -1e-12,
        f"100 neighborhoods; node slack >= {worst_slack:.3e}",
    )


def test_10_sampling_statistics():
    """Measured satisfied counts track m/2 at zero angles and m/2 + W* at
    the scanned optimum, both within 4 sigma at 20000 shots."""
    inst = generate_random(n=12, m=15, d_bound=3, seed=42)
    shots = 20000

    state0 = prepare(inst, AngleParams(0.0, 0.0))
    counts0 = satisfied_count_batch(
        inst, np.stack([a.bits for a in sample(state0, shots, seed=1)])
    )
    mean0 = float(np.mean(counts0))
    sigma0 = math.sqrt(inst.m / 4.0 / shots)
    dev0 = abs(mean0 - inst.m / 2.0)
    assert dev0 <= 4.0 * sigma0, (mean0, sigma0)

    result = scan(inst)
    predicted = inst.m / 2.0 + result.best_value
    state = prepare(inst, AngleParams(gamma=-result.best_gamma, beta=math.pi / 4))
    counts = satisfied_count_batch(
        inst, np.stack([a.bits for a in sample(state, shots, seed=2)])
    )
    mean = float(np.mean(counts))
    stderr = float(np.std(counts, ddof=1)) / math.sqrt(shots)
    dev = abs(mean - predicted)
    _report(
        10,
        "sampling-statistics",
        dev <= 4.0 * stderr,
        f"zero-angle dev {dev0:.4f} <= {4 * sigma0:.4f}; "
        f"optimum dev {dev:.4f} <= {4 * stderr:.4f}",
    )


def test_11_round_trip_determinism(tmp_path):
    """parse(serialize(.)) is the identity on 200 generated instances, and
    every CLI command emits byte-identical output when re-run."""
    rng = np.random.default_rng(77)
    for i in range(200):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(8, 17))
        m = max(1, min(20, (n * (d + 1)) // 3 - 1))
        inst = generate_random(n=n, m=m, d_bound=d, seed=7000 + i)
        assert parse(serialize(inst)) == inst

    path = tmp_path / "inst.e3lin2"
    gen_args = ["gen", "-n", "10", "-m", "8", "-D", "2", "--seed", "3", "-o", str(path)]
    first_file = None
    for _ in range(2):
        result = run_cli(gen_args)
        assert result.exit_code == 0
        data = path.read_bytes()
        assert first_file is None or data == first_file
        first_file = data

    reruns = [
        ["eval", str(path), "--gamma", "0.3"],
        ["eval", str(path), "--gamma", "0.3", "--mode", "mc", "--mc-samples", "300"],
        ["scan", str(path)],
        ["sample", str(path), "--gamma", "0.3", "--seed", "5"],
        ["typical", str(path)],
        ["typical", str(path), "--trials", "40", "--seed", "2"],
        ["bounds", "-m", "1000", "-D", "4"],
    ]
    for args in reruns:
        out1 = run_cli(args)
        out2 = run_cli(args)
        assert out1.exit_code == 0, (args, out1.output)
        assert out1.output == out2.output, args
    _report(
        11,
        "round-trip-determinism",
        True,
        "200 file round trips; 8 CLI invocations byte-stable",
    )
