"""Sieve layer against trial-division oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville_lab import arith_core as ac

import oracles


def test_primes_upto_matches_oracle():
    got = ac.primes_upto(1000).primes
    assert got.tolist() == oracles.primes_upto(1000)


def test_primes_upto_tiny_bounds():
    assert ac.primes_upto(1).primes.tolist() == []
    assert ac.primes_upto(2).primes.tolist() == [2]


def test_factor_table_small_range():
    t = ac.build_sieve(1, 2001)
    for n in range(1, 2001):
        assert t.liouville(n) == oracles.liouville(n), n
        assert t.mobius(n) == oracles.mobius(n), n
        assert t.big_omega(n) == oracles.big_omega(n), n
        if n >= 2:
            assert t.smallest_prime_factor(n) == oracles.spf(n), n


def test_factor_table_offset_window():
    lo = 10**6 + 17
    t = ac.build_sieve(lo, lo + 500)
    for n in range(lo, lo + 500):
        assert t.liouville(n) == oracles.liouville(n), n
        assert t.smallest_prime_factor(n) == oracles.spf(n), n


@given(st.integers(min_value=2, max_value=200),
       st.integers(min_value=2, max_value=200))
@settings(max_examples=200, deadline=None)
def test_liouville_completely_multiplicative(a, b):
    hi = a * b + 1
    t = ac.build_sieve(1, hi + 1)
    assert t.liouville(a * b) == t.liouville(a) * t.liouville(b)


@given(st.integers(min_value=1, max_value=30000),
       st.integers(min_value=1, max_value=2000),
       st.sampled_from([64, 257, 1 << 12, 1 << 20]))
@settings(max_examples=40, deadline=None)
def test_segment_independence(lo, span, seg):
    # same values regardless of segment boundaries
    hi = lo + span
    base = ac.liouville_range(lo, hi)
    assert np.array_equal(base, ac.liouville_range(lo, hi, segment_len=seg))
    assert np.array_equal(ac.mobius_range(lo, hi),
                          ac.mobius_range(lo, hi, segment_len=seg))
    # every table array, dtype included, and the parity-only paths agree with it
    t0 = ac.build_sieve(lo, hi)
    t1 = ac.build_sieve(lo, hi, segment_len=seg)
    assert t1.omega.dtype == np.int16
    for name in ("spf", "omega", "lam", "mu"):
        a, b = getattr(t0, name), getattr(t1, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(base, t1.lam)
    assert np.array_equal(ac.mobius_range(lo, hi), t1.mu)


def test_range_functions_match_oracle():
    lo, hi = 1, 3000
    lam = ac.liouville_range(lo, hi)
    mu = ac.mobius_range(lo, hi)
    pr = ac.primality_range(lo, hi)
    for n in range(lo, hi):
        assert lam[n - lo] == oracles.liouville(n)
        assert mu[n - lo] == oracles.mobius(n)
        assert bool(pr[n - lo]) == oracles.is_prime(n)


def test_von_mangoldt_minus_one_is_log_p_on_prime_powers():
    vals = ac.von_mangoldt_minus_one_range(1, 200)
    for n in range(1, 200):
        fac = oracles.trial_factor(n) if n > 1 else []
        lam_vm = math.log(fac[0][0]) if len(fac) == 1 else 0.0
        assert vals[n - 1] == pytest.approx(lam_vm - 1.0, abs=1e-12), n


def test_summatory_lambda_frozen_and_oracle():
    # frozen small values, then the oracle on a sparse ladder
    assert ac.summatory_lambda(10) == 0
    assert ac.summatory_lambda(20) == -4
    assert ac.summatory_lambda(1) == 1
    for x in (97, 1000, 4999):
        assert ac.summatory_lambda(x) == oracles.summatory_liouville(x)


def test_summatory_lambda_segment_invariance():
    assert ac.summatory_lambda(10**5) == ac.summatory_lambda(
        10**5, segment_len=1 << 12)


def test_chebyshev_psi_matches_oracle():
    for x in (10, 100, 1000):
        assert ac.chebyshev_psi(x) == pytest.approx(
            oracles.chebyshev_psi(x), rel=1e-12)


def test_prime_reciprocal_sum_frozen():
    # 1/2 + 1/3 + 1/5 + 1/7 = 247/210
    assert ac.prime_reciprocal_sum(10) == pytest.approx(247 / 210, rel=1e-13)


def test_squarefree_count_oracle_and_frozen():
    assert ac.squarefree_count(10) == 7
    assert ac.squarefree_count(100) == 61
    for x in (1000, 4096):
        assert ac.squarefree_count(x) == oracles.squarefree_count(x)


def test_squarefree_count_inclusion_exclusion():
    # Q(x) = sum_d mu(d) floor(x/d^2) is an exact identity
    for x in (10**4, 10**5):
        d = np.arange(1, math.isqrt(x) + 1)
        mu = ac.mobius_range(1, len(d) + 1)
        assert ac.squarefree_count(x) == int(np.dot(mu, x // (d * d)))


def test_count_excluding_prime_band():
    # direct filter: integers 1 <= n < x with no prime factor in [p_lo, p_hi]
    x, p_lo, p_hi = 2000, 5, 20
    band = [p for p in oracles.primes_upto(p_hi) if p >= p_lo]
    direct = sum(1 for n in range(1, x)
                 if all(n % p for p in band))
    assert ac.count_excluding_prime_band(x, p_lo, p_hi) == direct


def test_prime_pair_count_oracle():
    X, k = 500, 6
    ps = set(oracles.primes_upto(X))
    direct = sum(1 for p in ps if p + k <= X and p + k in ps)
    assert ac.prime_pair_count(X, k) == direct


def test_build_sieve_rejects_bad_window():
    with pytest.raises(ValueError):
        ac.build_sieve(10, 10)
    with pytest.raises(ValueError):
        ac.build_sieve(0, 5)


def test_span_budget_enforced():
    with pytest.raises(Exception):
        ac.liouville_range(1, ac.SPAN_BUDGET + 2)
