"""Exponential sums, rational approximation, characters, correlations."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab import expsum_circle as ec
from liouville_lab.util import BudgetError

import oracles


def lam_upto(N):
    """1-indexed list [0, lam(1), ..., lam(N)] from the trial-division oracle."""
    return [0] + [oracles.liouville(n) for n in range(1, N + 1)]


# ------------------------------------------------------ basics

def test_e_of_unit_circle():
    assert ec.e_of(0.0) == pytest.approx(1.0)
    assert ec.e_of(0.5).real == pytest.approx(-1.0, abs=1e-15)
    assert abs(ec.e_of(0.123)) == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_dist_to_z_matches_oracle(x):
    d = ec.dist_to_z(x)
    assert d == pytest.approx(oracles.dist_to_z(x), abs=1e-12)
    assert 0.0 <= d <= 0.5 + 1e-12


# ------------------------------------------------------ rational approx

def test_dirichlet_approx_pi_frozen():
    ra = ec.dirichlet_approx(math.pi, 100)
    assert (ra.a, ra.q) == (22, 7)
    assert ra.err == pytest.approx(abs(math.pi - 22 / 7), abs=1e-15)


def test_dirichlet_approx_exact_inputs():
    ra = ec.dirichlet_approx(Fraction(1, 3), 10)
    assert (ra.a, ra.q, ra.err) == (1, 3, 0.0)
    ra = ec.dirichlet_approx(5, 7)
    assert (ra.a, ra.q, ra.err) == (5, 1, 0.0)
    with pytest.raises(ValueError):
        ec.dirichlet_approx(0.5, 0)


@settings(max_examples=120, deadline=None)
@given(
    num=st.integers(min_value=-10**6, max_value=10**6),
    den=st.integers(min_value=1, max_value=10**6),
    Q=st.integers(min_value=1, max_value=10**4),
)
def test_dirichlet_approx_pigeonhole_property(num, den, Q):
    alpha = Fraction(num, den)
    ra = ec.dirichlet_approx(alpha, Q)
    assert 1 <= ra.q <= Q
    # exact certificate |alpha - a/q| <= 1/(q Q)
    assert abs(alpha - Fraction(ra.a, ra.q)) * ra.q * Q <= 1


# ------------------------------------------------------ geometric sums

def test_geometric_sum_direct_and_envelope():
    val, bnd = ec.geometric_sum_check(0.25, 0, 9)
    direct = sum(ec.e_of(0.25 * m) for m in range(0, 10))
    assert val == pytest.approx(direct, abs=1e-12)
    assert abs(val) <= bnd + 1e-12
    assert bnd == pytest.approx((2 / math.pi) / 0.25)


def test_geometric_sum_closed_form_long_range():
    # count > 4096 exercises the closed form; 6000 thirds of a turn cancel
    val, bnd = ec.geometric_sum_check(1 / 3, 0, 5999)
    assert abs(val) <= 1e-8
    assert abs(val) <= bnd


def test_geometric_sum_integral_case():
    val, bnd = ec.geometric_sum_check(1e-16, 5, 14)
    assert val == 10.0 + 0j
    assert bnd == math.inf
    with pytest.raises(ValueError):
        ec.geometric_sum_check(0.3, 4, 3)


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(min_value=0.05, max_value=0.95),
    m0=st.integers(min_value=-30, max_value=30),
    count=st.integers(min_value=1, max_value=200),
)
def test_geometric_sum_property(beta, m0, count):
    val, bnd = ec.geometric_sum_check(beta, m0, m0 + count - 1)
    direct = sum(ec.e_of(beta * m) for m in range(m0, m0 + count))
    assert val == pytest.approx(direct, abs=1e-9)
    assert abs(val) <= bnd + 1e-9


# ------------------------------------------------------ vinogradov sums

def test_vinogradov_frozen_third():
    res = ec.vinogradov_sum(Fraction(1, 3), 3, 10)
    # n = 0, +-3 hit the cap 10; n = +-1, +-2 sit at distance 1/3
    assert res.value == pytest.approx(42.0, abs=1e-9)
    assert (res.a, res.q) == (1, 3)
    assert res.bound == pytest.approx(4.0 * 2.0 * (10 + 3 * math.log(3)))
    assert res.value <= res.bound


def test_vinogradov_degenerate_and_errors():
    res = ec.vinogradov_sum(0.5, 0, 25.0)
    assert res.value == pytest.approx(25.0)
    assert res.value <= res.bound
    with pytest.raises(ValueError):
        ec.vinogradov_sum(0.5, -1, 10)
    with pytest.raises(ValueError):
        ec.vinogradov_sum(0.5, 5, 0.0)


def test_vinogradov_envelope_seeded_sample():
    rng = np.random.default_rng(202)
    for _ in range(25):
        alpha = float(rng.uniform(0.01, 0.99))
        N = int(rng.integers(1, 2000))
        Xcap = float(rng.uniform(1, 500))
        res = ec.vinogradov_sum(alpha, N, Xcap)
        assert res.value <= res.bound * (1 + 1e-12)


# ------------------------------------------------------ prime exponential sums

def test_fourth_moment_primes_matches_pair_count():
    for h in (10, 50, 200):
        plist = [p for p in range(2, h + 1) if oracles.is_prime(p)]
        r = {}
        for p in plist:
            for q in plist:
                r[q - p] = r.get(q - p, 0) + 1
        direct = sum(v * v for v in r.values())
        assert ec.fourth_moment_primes(h) == direct


def test_fourth_moment_primes_frozen():
    assert ec.fourth_moment_primes(1000) == 1163832


def test_major_arc_measure_basics():
    with pytest.raises(ValueError):
        ec.major_arc_measure(100, 0.5, 999)
    # alpha = 0 always exceeds any threshold below pi(h), so cell 0 joins
    m = ec.major_arc_measure(10**4, 0.5, 10**4)
    assert m >= 1.0 / 10**4
    assert m == pytest.approx(0.0008, abs=1e-15)


def test_major_arc_measure_direct_path_matches_fft_oracle():
    h, eps, G = 5000, 0.5, 10**3
    m = ec.major_arc_measure(h, eps, G)  # M = 2G < h: primes alias mod M
    M = 2 * G
    ps = [p for p in range(2, h + 1) if oracles.is_prime(p)]
    vec = np.zeros(M)
    for p in ps:
        vec[p % M] += 1.0
    # p % M aliases are exact for the sampled frequencies j/M
    aliased = np.abs(np.fft.fft(vec))
    # and the phase sum itself, one exponential per prime and node
    direct = np.abs(oracles.direct_phase_sum(-2.0 * np.pi * np.array(ps, dtype=np.float64),
                                             np.ones(len(ps)), np.arange(M) / M))
    threshold = eps * h / math.log(h)
    for mod in (aliased, direct):
        exceed = mod > threshold
        nxt = np.roll(exceed, -1)
        nxt2 = np.roll(exceed, -2)
        cells = exceed[0::2] | nxt[0::2] | nxt2[0::2]
        assert m == pytest.approx(float(np.count_nonzero(cells)) / G, abs=1e-15)


# ------------------------------------------------------ characters

def euler_phi_oracle(q):
    return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)


def test_euler_phi_matches_gcd_count():
    for q in range(1, 200):
        assert ec.euler_phi(q) == euler_phi_oracle(q)


def test_character_table_counts_and_principal():
    for q in (1, 2, 3, 4, 8, 9, 12, 24, 45):
        tab = ec.characters_mod(q)
        assert tab.n_chars == ec.euler_phi(q)
        row0 = tab.row(0)
        for n in range(q):
            want = 1.0 if (q == 1 or math.gcd(n, q) == 1) else 0.0
            assert row0[n] == pytest.approx(want, abs=1e-14)


def test_character_orthonormality_spot():
    for q in (2, 3, 4, 8, 9, 12, 45):
        tab = ec.characters_mod(q)
        V = tab.values
        gram = V @ V.conj().T / ec.euler_phi(q)
        dev = np.max(np.abs(gram - np.eye(tab.n_chars)))
        assert dev <= 1e-12
        # nonprincipal rows sum to zero over a full period
        for idx in range(1, tab.n_chars):
            assert abs(V[idx].sum()) <= 1e-12


def test_character_column_orthogonality():
    q = 12
    tab = ec.characters_mod(q)
    V = tab.values
    phi = ec.euler_phi(q)
    units = [n for n in range(q) if math.gcd(n, q) == 1]
    for n in units:
        for m in units:
            s = np.dot(V[:, n], np.conj(V[:, m]))
            want = phi if n == m else 0.0
            assert abs(s - want) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(
    q=st.integers(min_value=1, max_value=60),
    idx_seed=st.integers(min_value=0, max_value=10**6),
    m=st.integers(min_value=1, max_value=300),
    n=st.integers(min_value=1, max_value=300),
)
def test_character_multiplicativity(q, idx_seed, m, n):
    tab = ec.characters_mod(q)
    idx = idx_seed % tab.n_chars
    row = tab.row(idx)
    lhs = row[m * n % q]
    rhs = row[m % q] * row[n % q]
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_character_rows_match_per_residue_oracle():
    # every row, computed in numpy, against the per-residue loop, bit for bit
    for q in range(1, 121):
        tab = ec.characters_mod(q)
        for idx in range(tab.n_chars):
            want = [oracles.character_value(q, idx, n) for n in range(q)]
            assert tab.row(idx).tolist() == want, (q, idx)


def test_character_budget_and_domain():
    with pytest.raises(BudgetError):
        ec.characters_mod(1025).values
    with pytest.raises(ValueError):
        ec.characters_mod(0)
    with pytest.raises(ValueError):
        ec.characters_mod(10**4 + 1)


def test_character_index_outside_range_raises():
    # index n_chars would wrap to the principal row and -1 to a
    # nonprincipal one; both are refused
    tab = ec.characters_mod(5)
    for bad in (-1, tab.n_chars):
        with pytest.raises(IndexError):
            tab.row(bad)


def test_additive_reconstruction_small_moduli():
    for q in range(1, 21):
        coeffs = ec.additive_to_multiplicative(q)
        assert [d for d, _ in coeffs] == [d for d in range(1, q + 1) if q % d == 0]
        for _, C in coeffs:
            assert np.max(np.abs(C)) <= 1.0 + 1e-12
        got = ec.reconstruct_additive(coeffs, np.arange(1, 2 * q + 1))
        for a in range(q):
            for n in range(1, 2 * q + 1):
                assert got[a, n - 1] == pytest.approx(ec.e_of(a * n / q), abs=1e-10)
    with pytest.raises(ValueError):
        ec.additive_to_multiplicative(0)


def test_one_character_table_per_modulus():
    for q in (1, 2, 12, 30):
        ec.characters_mod.cache_clear()
        coeffs = ec.additive_to_multiplicative(q)
        ec.reconstruct_additive(coeffs, np.arange(1, 2 * q + 1))
        # the coefficients and the resummation read the one table of each
        # modulus q/d: one cache miss per divisor
        assert ec.characters_mod.cache_info().misses == sum(q % M == 0 for M in range(1, q + 1))


def test_divisor_bridge_matches_loop_oracle():
    # every coefficient against the per-term loop with its own characters,
    # and the resummation against the oracle's at a few n
    for q in range(1, 31):
        coeffs = ec.additive_to_multiplicative(q)
        ns = np.array([1, 2, q, q + 1, 2 * q - 1])
        got = ec.reconstruct_additive(coeffs, ns)
        by_d = dict(coeffs)
        for a in range(q):
            terms = oracles.bridge_terms(a, q)
            for d, M, idx, coeff in terms:
                assert abs(by_d[d][a, idx] - coeff) <= 1e-12, (q, a, d, idx)
            for j, n in enumerate(ns):
                assert abs(got[a, j] - oracles.bridge_resum(terms, int(n))) <= 1e-12


def test_divisor_bridge_at_largest_dense_modulus():
    # every a and every residue class of n at q = MAX_DENSE_Q
    q = ec.MAX_DENSE_Q
    ns = np.arange(1, q + 1)
    got = ec.reconstruct_additive(ec.additive_to_multiplicative(q), ns)
    want = np.exp(2j * np.pi * (np.outer(np.arange(q), ns) % q / q))
    assert float(np.max(np.abs(got - want))) <= 1e-10


# ------------------------------------------------------ correlations

def test_chowla_avg_fast_equals_naive():
    tf, sf = ec.chowla_avg(1000, 20)
    cn, sn = oracles.naive_chowla(lam_upto(2000), 1000, 20)
    assert tf.c.tolist() == cn
    assert sf == sn
    with pytest.raises(ValueError):
        ec.chowla_avg(100, 100)


def test_chowla_table_matches_window_oracle():
    X, h = 400, 12
    table, stat = ec.chowla_avg(X, h)
    lam = lam_upto(2 * X)
    for j in range(1, h + 1):
        assert table.c[j - 1] == oracles.naive_correlation(lam, X, j)
    recompute = sum(int(table.c[j - 1]) ** 2 for j in range(1, h // 2 + 1))
    assert stat == pytest.approx(recompute / (h * X**2), rel=1e-12)


def test_chowla_stat_frozen():
    _, stat = ec.chowla_avg(10**4, 50)
    assert stat == pytest.approx(3.45906e-05, rel=1e-4)


def test_prime_shift_correlation_direct():
    X, h = 2000, 50
    lam = lam_upto(2 * X + h)
    total = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        total += sum(int(lam[n]) * int(lam[n + p]) for n in range(X + 1, 2 * X + 1))
    got_total, got_norm = ec.prime_shift_correlation(X, h)
    assert got_total == total
    assert got_norm == pytest.approx(total * math.log(h) / (h * X), rel=1e-12)


def test_prime_shift_correlation_frozen():
    total, norm = ec.prime_shift_correlation(10**5, 100)
    assert total == 1594
    assert norm == pytest.approx(0.0007340641276465019, rel=1e-12)


# ------------------------------------------------------ ternary sums

def test_ternary_unit_closed_form():
    assert ec.ternary_sum(2) == 0
    assert ec.ternary_sum(3) == 1
    assert ec.ternary_sum(4) == 3
    for N in (5, 17, 40, 777, 5000):
        assert ec.ternary_sum(N, "unit") == (N - 1) * (N - 2) // 2


def test_ternary_liouville_matches_double_loop():
    N = 300
    lam = lam_upto(N)
    direct = 0
    for a in range(1, N - 1):
        for b in range(1, N - a):
            c = N - a - b
            direct += int(lam[a]) * int(lam[b]) * int(lam[c])
    assert ec.ternary_sum(N, "liouville") == direct
    assert ec.ternary_sum(4, "liouville") == -3


def test_ternary_frozen_and_budget():
    assert ec.ternary_sum(5000, "unit") == 12492501
    assert ec.ternary_sum(5000, "liouville") == -11259
    with pytest.raises(BudgetError):
        ec.ternary_sum(10**5 + 1)
    with pytest.raises(ValueError):
        ec.ternary_sum(100, weight="primes")


# ------------------------------------------------------ torus Parseval

def test_parseval_torus_random_degrees():
    rng = np.random.default_rng(7)
    for J in (0, 1, 5, 64, 256):
        a = rng.normal(size=J + 1) + 1j * rng.normal(size=J + 1)
        mean, ssq = ec.parseval_torus_check(a)
        assert mean == pytest.approx(ssq, rel=1e-12)


def test_parseval_torus_single_mode():
    mean, ssq = ec.parseval_torus_check([0.0, 0.0, 2.0 + 1.0j])
    assert ssq == pytest.approx(5.0)
    assert mean == pytest.approx(5.0, rel=1e-12)
