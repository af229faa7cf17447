"""End-to-end acceptance battery.

Each test pins one headline guarantee with explicit tolerances and a
wall-clock budget (asserted, with the budget stated in seconds). All
computations are deterministic: fixed seeds, fixed grids, exact integer
sieves. Values frozen here were cross-checked against the independent
trial-division and quadrature oracles in oracles.py.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from liouville_lab import (
    arith_core,
    dirichlet_poly,
    entropy_chowla,
    expsum_circle,
    interval_stats,
    mr_factorization,
    zeta_mellin,
)

import oracles


# 1. sieve exactness: lambda, mu, Omega, spf equal trial division on
#    1..1e6 and on 1e5 random n near 1e9; budget 10 s
def test_c01_sieve_matches_trial_division_everywhere():
    t0 = time.perf_counter()
    tab = arith_core.build_sieve(1, 10**6 + 1)
    spf_o, om_o, sqf_o = oracles.batch_trial_factor(np.arange(1, 10**6 + 1, dtype=np.int64))
    lam_o = np.where(om_o % 2 == 0, 1, -1).astype(np.int8)
    mu_o = np.where(sqf_o, lam_o, 0).astype(np.int8)
    assert np.array_equal(tab.lam, lam_o)
    assert np.array_equal(tab.mu, mu_o)
    assert np.array_equal(tab.omega, om_o)
    assert np.array_equal(tab.spf, spf_o)

    rng = np.random.default_rng(1)
    ns = np.sort(rng.integers(10**9, 10**9 + 10**6 + 1, size=10**5, dtype=np.int64))
    spf_r, om_r, sqf_r = oracles.batch_trial_factor(ns)
    far = arith_core.build_sieve(10**9, 10**9 + 10**6 + 2)
    idx = ns - far.lo
    assert np.array_equal(far.spf[idx], spf_r)
    assert np.array_equal(far.omega[idx], om_r)
    assert np.array_equal(far.lam[idx], np.where(om_r % 2 == 0, 1, -1))
    assert np.array_equal(far.mu[idx], np.where(sqf_r, np.where(om_r % 2 == 0, 1, -1), 0))
    assert time.perf_counter() - t0 <= 10.0


# 2. square-free density at 1e7 within 5e-4 of 0.6079; budget 5 s
def test_c02_squarefree_density():
    t0 = time.perf_counter()
    q = arith_core.squarefree_count(10**7)
    assert abs(q / 10**7 - 0.6079) <= 5e-4
    assert time.perf_counter() - t0 <= 5.0


# 3. signed reciprocal-square sum against the zeta-ratio target within
#    1e-3, and the Euler product input cross-checked to 1e-8 against an
#    independent head-plus-tail evaluation; budget 1 s
def test_c03_zeta_ratio_and_independent_check():
    t0 = time.perf_counter()
    lam = arith_core.liouville_range(1, 10**5 + 1).astype(np.float64)
    ns = np.arange(1, 10**5 + 1, dtype=np.float64)
    s = math.fsum(lam / ns**2)
    assert abs(s - math.pi**2 / 15.0) <= 1e-3  # zeta(4)/zeta(2)

    N = 40000
    head = math.fsum(1.0 / (n * n) for n in range(1, N + 1))
    tail = 1.0 / N - 0.5 / N**2 + 2.0 / (12.0 * N**3)
    independent = head + tail
    assert abs(zeta_mellin.zeta_strip(2.0).real - independent) <= 1e-8
    assert time.perf_counter() - t0 <= 1.0


# 4. mean square of random degree-500 coefficient vectors over t-ranges
#    100 and 5000: deviation ratio within 8, certified quadrature error
#    under 1e-6 relative; 20 seeded vectors; budget 60 s
def test_c04_mean_value_envelope_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for T in (100.0, 5000.0):
        for _ in range(10):
            a = rng.normal(size=500) + 1j * rng.normal(size=500)
            seq = dirichlet_poly.coeffs_from_dict({n: a[n - 1] for n in range(1, 501)})
            res = dirichlet_poly.mean_value_integral(seq, T)
            assert abs(res.ratio) <= 8.0
            assert res.quadrature_bound <= 1e-6 * res.value
    assert time.perf_counter() - t0 <= 60.0


# 5. torus quadrature Parseval at degree 256 to 1e-9 relative; budget 1 s
def test_c05_torus_parseval():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    a = rng.normal(size=257) + 1j * rng.normal(size=257)
    mean, ssq = expsum_circle.parseval_torus_check(a)
    assert abs(mean - ssq) <= 1e-9 * ssq
    assert time.perf_counter() - t0 <= 1.0


# 6. capped reciprocal distance sums under the C = 4 envelope on 100
#    seeded draws, with the rational certificate exact; budget 5 s
def test_c06_capped_distance_sum_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(100):
        alpha = float(rng.uniform(0.001, 0.999))
        N = int(rng.integers(1, 10**4 + 1))
        Xcap = float(rng.uniform(1.0, 10**3))
        res = expsum_circle.vinogradov_sum(alpha, N, Xcap, C=4.0)
        assert res.value <= res.bound
        # convergent certificate, exact rational arithmetic
        assert abs(Fraction(alpha) - Fraction(res.a, res.q)) <= Fraction(1, res.q**2)
    assert time.perf_counter() - t0 <= 5.0


# 7. multiplicative-window variance at X = 1e7 strictly decreasing over
#    h in {1e2, 1e3, 1e4, 1e5}, below 0.01 at the widest window, and the
#    prefix-sum path equal to the direct window sum at X = 1e4; budget 120 s
def test_c07_variance_ladder_and_naive_agreement():
    t0 = time.perf_counter()
    vals = []
    for h in (100, 1000, 10000, 100000):
        spec = interval_stats.WindowSpec("multiplicative", 10**7, h)
        vals.append(interval_stats.variance("liouville", spec))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.01
    assert vals[0] == pytest.approx(0.00684852231532, rel=1e-9)

    X, h = 10**4, 100
    spec = interval_stats.WindowSpec("multiplicative", X, h)
    v = interval_stats.variance("liouville", spec)
    lam = [0] + [oracles.liouville(n) for n in range(1, 2 * X + 1)]
    sq = []
    for x in range(X + 1, 2 * X + 1):
        a = (x * (X - h)) // X
        m = sum(lam[n] for n in range(a + 1, x + 1)) / (x - a)
        sq.append(m * m)
    assert v == pytest.approx(math.fsum(sq) / X, rel=1e-12)
    assert time.perf_counter() - t0 <= 120.0


# 8. prime-pair fourth moment, scaled by log^4 h / h^3, stays below 40
#    for h in {1e3, 1e4, 1e5}; the loud-phase grid measure at h = 1e4
#    stays below 20 / (eps^4 h) at eps = 0.5; budget 120 s
def test_c08_fourth_moment_and_loud_phase_measure():
    t0 = time.perf_counter()
    for h in (10**3, 10**4, 10**5):
        M4 = expsum_circle.fourth_moment_primes(h)
        assert M4 * math.log(h) ** 4 / h**3 <= 40.0
    assert expsum_circle.fourth_moment_primes(10**3) == 1163832
    eps, h = 0.5, 10**4
    measure = expsum_circle.major_arc_measure(h, eps, 10**4)
    assert measure <= 20.0 / (eps**4 * h)
    assert time.perf_counter() - t0 <= 120.0


# 9. pair-correlation statistic at (1e6, 1e2) under 0.05; the plain
#    consecutive-shift sum over n <= 1e6 under 0.01 in normalized size;
#    vectorized path identical to the double-loop oracle at 1e4; budget 60 s
def test_c09_pair_correlation_statistics():
    t0 = time.perf_counter()
    _, stat = expsum_circle.chowla_avg(10**6, 10**2)
    assert stat < 0.05
    lam = arith_core.liouville_range(1, 10**6 + 2).astype(np.int64)
    single = int(np.dot(lam[: 10**6], lam[1 : 10**6 + 1]))
    assert abs(single) / 10**6 < 0.01
    tf, sf = expsum_circle.chowla_avg(10**4, 50)
    lam = [0] + [oracles.liouville(n) for n in range(1, 2 * 10**4 + 1)]
    cn, sn = oracles.naive_chowla(lam, 10**4, 50)
    assert tf.c.tolist() == cn
    assert sf == sn
    assert time.perf_counter() - t0 <= 60.0


# 10. joint sign/residue law at (x, w, H, eps) = (1e6, 1e3, 10, 1):
#     information nonnegative, chain rule and subadditivity to 1e-10,
#     residue marginal within 10 w / x of uniform, and the concentration
#     inequality holding on every admissible heaviest event; budget 60 s
def test_c10_entropy_suite():
    t0 = time.perf_counter()
    model = entropy_chowla.LogWeightedModel(10**6, 10**3)
    joint = entropy_chowla.build_joint(model, 10, 1.0)
    Hx = entropy_chowla.entropy_x(joint)
    Hy = entropy_chowla.entropy_y(joint)
    Hxy = entropy_chowla.joint_entropy(joint)
    mi = entropy_chowla.mutual_information(joint)
    assert mi >= -1e-10
    cond = entropy_chowla.conditional_entropy(joint)
    assert abs(cond - (Hxy - Hy)) <= 1e-10
    assert Hxy <= Hx + Hy + 1e-10
    dev, _ = entropy_chowla.y_uniformity(joint)
    assert dev <= 10.0 * model.w / model.x

    dense = entropy_chowla.sign_block_distribution(model, 10)
    k = len(dense)
    Hd = entropy_chowla.entropy(dense)
    logk = math.log(k)
    order = np.argsort(dense)[::-1]
    for M in (2, 3, 4):
        delta = max(1.0 - Hd / logk, 1.0 / logk)
        cap = int(k ** (1.0 - M * delta))
        violated = not entropy_chowla.concentration_check(dense, order[:cap], M)
        assert not violated  # a False here is a genuine counterexample
    assert time.perf_counter() - t0 <= 60.0


# 11. divisor-sum bridge residuals: band-divisor route within
#     5 log(K1) / ell at (1e7, 1e2, 10, 100); expectation route within
#     20 eps log w / log H at (1e6, 1e2, 10, 1); budget 60 s
def test_c11_bridge_residuals():
    t0 = time.perf_counter()
    r1 = entropy_chowla.divisibility_trick_residual(10**7, 10**2, 10, 100)
    plist = arith_core.primes_upto(100)
    ell = math.fsum(1.0 / p for p in plist[plist > 10])
    assert r1 <= 5.0 * math.log(100) / ell
    assert r1 == pytest.approx(0.00985353161601242, rel=1e-9)

    r2 = entropy_chowla.suma_esperanza_residual(10**6, 10**2, 10, 1)
    assert r2 <= 20.0 * 1.0 * math.log(10**2) / math.log(10)
    assert r2 == pytest.approx(0.00228617970395249, rel=1e-9)
    assert time.perf_counter() - t0 <= 60.0


# 12. log-weighted consecutive-sign sum within 0.1 log w at
#     (1e7, 1e3), cross-checked at 1e6; budget 30 s
def test_c12_log_weighted_consecutive_sum():
    t0 = time.perf_counter()
    cap = 0.1 * math.log(10**3)
    s7 = entropy_chowla.log_chowla_sum(10**7, 10**3)
    assert abs(s7) <= cap
    assert s7 == pytest.approx(-0.00804622555106243, rel=1e-9)
    s6 = entropy_chowla.log_chowla_sum(10**6, 10**3)
    assert abs(s6) <= cap
    assert s6 == pytest.approx(0.00885880668562914, rel=1e-9)
    assert time.perf_counter() - t0 <= 30.0


# 13. characters: orthonormality and zero sums to 1e-12 for every
#     modulus up to 50; phase reconstruction to 1e-10 for every residue
#     class at every modulus up to 30; budget 5 s
def test_c13_characters_and_reconstruction():
    t0 = time.perf_counter()
    for q in range(1, 51):
        tab = expsum_circle.characters_mod(q)
        V = tab.values
        phi = expsum_circle.euler_phi(q)
        gram = V @ V.conj().T / phi
        assert np.max(np.abs(gram - np.eye(tab.n_chars))) <= 1e-12
        for idx in range(1, tab.n_chars):
            assert abs(V[idx].sum()) <= 1e-12
    for q in range(1, 31):
        got = expsum_circle.reconstruct_additive(
            expsum_circle.additive_to_multiplicative(q), np.arange(1, 2 * q + 1))
        for a in range(q):
            for n in range(1, 2 * q + 1):
                want = expsum_circle.e_of(a * n / q)
                assert abs(got[a, n - 1] - want) <= 1e-10
    assert time.perf_counter() - t0 <= 5.0


# 14. two-factor weight at (X, delta, P0, Q0) = (1e4, 0.1, 10, 100):
#     values inside [0, 1], exceptional density within 3 (alpha + delta),
#     and the series-identity quadrature residual, pooled over a fixed
#     t set, shrinking at least linearly under node doubling; budget 30 s
def test_c14_two_factor_weight_and_identity():
    t0 = time.perf_counter()
    w = mr_factorization.RamareWeight(10**4, 0.1, 10, 100)
    u = mr_factorization.weight_array(w)
    assert float(u.min()) >= 0.0
    assert float(u.max()) <= 1.0

    rep = mr_factorization.err_set(w)
    alpha = math.log(10) / math.log(100)
    assert rep.density <= 3.0 * (alpha + 0.1)

    tpool = (0.0, 0.4, 0.8, 1.3, 2.1)
    pooled = []
    for nodes in (4096, 16384, 65536):
        rs = [mr_factorization.factorization_identity_residual(w, t, nodes)
              for t in tpool]
        pooled.append(sum(rs) / len(rs))
    # each 4x refinement covers two doublings; linear shrink per doubling
    # means a factor 4, asserted with no slack on this frozen computation
    assert pooled[1] <= 0.25 * pooled[0]
    assert pooled[2] <= 0.25 * pooled[1]
    assert time.perf_counter() - t0 <= 30.0


# 15. simulated tail probabilities under the closed-form envelope plus
#     three standard errors at n = 100, C = 1, s in {10, 20, 30},
#     1e5 trials each; budget 10 s
def test_c15_tail_inequality():
    t0 = time.perf_counter()
    for s in (10.0, 20.0, 30.0):
        emp, bound = entropy_chowla.hoeffding_tail_check(100, 1.0, s, 10**5)
        assert emp <= bound + 3.0 * math.sqrt(bound / 10**5)
    assert time.perf_counter() - t0 <= 10.0
