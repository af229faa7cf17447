"""Cutoff transforms, strip zeta values, and the truncated contour formula."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liouville_lab import arith_core as ac
from liouville_lab import zeta_mellin as zm
from liouville_lab.util import fsum, fsum_complex

import oracles

EPS = np.finfo(np.float64).eps


def test_smooth_cutoff_rejects_bad_delta():
    with pytest.raises(ValueError):
        zm.SmoothCutoff(0.0)
    with pytest.raises(ValueError):
        zm.SmoothCutoff(0.5)


def test_psi_delta_ramp_shape():
    c = zm.SmoothCutoff(0.2)
    assert zm.psi_delta(0.3, c) == 1.0
    assert zm.psi_delta(0.8, c) == 1.0
    assert zm.psi_delta(0.9, c) == pytest.approx(0.5)
    assert zm.psi_delta(1.0, c) == 0.0
    assert zm.psi_delta(7.0, c) == 0.0


@pytest.mark.parametrize("delta", [0.1, 0.25, 0.2])
def test_psi_delta_on_an_array_equals_each_element(delta):
    # the flat part and the zero are tested before the slope, which rounds
    # to 0.9999999999999998 at 1 - delta = 0.9 (n = 1800, x = 2000)
    c = zm.SmoothCutoff(delta)
    xs = np.concatenate((np.arange(1, 2101) / 2000.0, [1.0 - delta, 1.0, 5.0]))
    got = zm.psi_delta(xs, c)
    assert got.tolist() == [zm.psi_delta(float(x), c) for x in xs]
    assert type(zm.psi_delta(0.5, c)) is float
    assert zm.psi_delta(np.array([1.0 - delta, 1.0]), c).tolist() == [1.0, 0.0]
    with pytest.raises(ValueError):
        zm.psi_delta(np.array([0.5, 0.0]), c)


def test_mellin_psi_on_an_array_equals_each_element():
    c = zm.SmoothCutoff(0.1)
    s = 1.2 + 1j * np.linspace(0.0, 40.0, 81)
    assert zm.mellin_psi(s, c).tolist() == pytest.approx([zm.mellin_psi(v, c) for v in s], rel=1e-14)
    with pytest.raises(ValueError):
        zm.mellin_psi(np.array([1.0, -1.0]), c)


@given(st.floats(min_value=0.01, max_value=0.49),
       st.floats(min_value=1e-6, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_psi_delta_range_and_monotone(delta, x):
    c = zm.SmoothCutoff(delta)
    v = zm.psi_delta(x, c)
    assert 0.0 <= v <= 1.0
    assert zm.psi_delta(x + 1e-9, c) <= v + 1e-12


def test_mellin_psi_frozen_value():
    # delta = 0.1 at s = 2: (1 - 0.9^3) / (2 * 3 * 0.1) = 0.271/0.6
    c = zm.SmoothCutoff(0.1)
    assert zm.mellin_psi(2.0, c) == pytest.approx(0.271 / 0.6, rel=1e-14)


def test_mellin_psi_matches_quadrature():
    # flat piece integrates to (1-delta)^s / s in closed form; only the
    # short ramp piece needs quadrature, and it does not oscillate
    c = zm.SmoothCutoff(0.3)
    d = c.delta
    us = np.linspace(1.0 - d, 1.0, 200001)
    dt = float(us[1] - us[0])
    for s in (1.7 + 0.0j, 2.0 + 3.0j, 1.2 - 5.0j):
        flat = (1.0 - d) ** s / s
        ramp_vals = ((1.0 - us) / d) * us ** (s - 1)
        ramp = oracles.trapezoid_complex(ramp_vals, dt)
        assert abs(flat + ramp - zm.mellin_psi(s, c)) < 1e-9


@given(st.floats(min_value=0.02, max_value=0.45),
       st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=-80.0, max_value=80.0))
@settings(max_examples=150, deadline=None)
def test_mellin_bound_dominates(delta, sigma, t):
    c = zm.SmoothCutoff(delta)
    s = complex(sigma, t)
    assert abs(zm.mellin_psi(s, c)) <= zm.mellin_psi_bound(s, c) * (1 + 1e-12)


def test_zeta_even_integers_exact():
    assert zm.zeta_strip(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-12)
    assert zm.zeta_strip(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-12)


def test_zeta_strip_against_series_tail_oracle():
    # independent truncation: plain series + integral tail + half term
    def series_tail(sig, N):
        head = math.fsum(n ** -sig for n in range(1, N + 1))
        return head + N ** (1 - sig) / (sig - 1) - 0.5 * N**-sig \
            + sig / 12.0 * N ** (-sig - 1)

    for sig in (1.5, 2.0, 3.0):
        ref = series_tail(sig, 40000)
        assert zm.zeta_strip(sig).real == pytest.approx(ref, abs=1e-8)
        assert abs(zm.zeta_strip(sig).imag) < 1e-15


def test_zeta_strip_against_mpmath_off_axis():
    for s in (0.5 + 14.1347j, 1.1 + 3.0j, 2.0 + 100.0j, 0.75 - 0.5j):
        ref = complex(mpmath.zeta(s))
        assert abs(zm.zeta_strip(s) - ref) < 1e-10


def test_zeta_strip_grid_matches_scalar():
    ts = np.array([0.5, 2.0, 37.0])
    grid = zm.zeta_strip_grid(1.3, ts, 3000)
    for t, v in zip(ts, grid):
        assert abs(v - zm.zeta_strip(complex(1.3, t), terms=3000)) < 1e-13


@pytest.fixture(scope="module")
def mp_zeta():
    # mpmath zeta at 20 digits, one call per node shared by every M
    cache = {}

    def value(s):
        if s not in cache:
            with mpmath.workdps(20):
                cache[s] = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
        return cache[s]
    return value


def _contour_grids(x, T):
    # tnp's two zeta grids at (perron_x, perron_t): (sigma, ts), (2 sigma, 2 ts)
    sigma = 1.0 + 1.0 / math.log(x)
    ts = np.linspace(0.0, T, zm.perron_nodes(x, T))
    return [(sigma, ts), (2 * sigma, 2 * ts)]


@pytest.mark.parametrize("T", [400.0, 2000.0])
@pytest.mark.parametrize("x", [3, 2000, 10**6])
def test_zeta_strip_grid_within_tail_bound_and_drift(x, T, mp_zeta):
    # at 41 nodes of each tnp grid, t = 0 and max t among them, the error
    # against mpmath lies within Backlund's bound on the tail plus the
    # _phase_sum drift 4 eps (1 + max|t| max|y|) sum|v| of the head. At the
    # rule's M the bound is below eps (sigma - 1)/sigma; at M = 20 and 50 it
    # is far above rounding at some nodes, where a lost correction or a
    # wrong Pochhammer factor shows. The rule's M is the one the grid takes,
    # rounded up to a multiple of 8
    for sigma, ts in _contour_grids(x, T):
        at = np.linspace(0, len(ts) - 1, 41).astype(int)
        rule = zm._aligned_terms(sigma, ts[-1])
        assert zm._em_remainder(complex(sigma, ts[-1]), rule) <= EPS * (sigma - 1) / sigma
        for M in (rule, 20, 50):
            s = sigma + 1j * ts[at]
            got = zm.zeta_strip_grid(sigma, ts, M)[at]
            want = np.array([mp_zeta(v) for v in s])
            n = np.arange(1, M + 1, dtype=np.float64)
            drift = 4 * EPS * (1 + ts[-1] * math.log(M)) * fsum(n ** -sigma)
            assert np.all(np.abs(got - want) <= zm._em_remainder(s, M) + drift), (sigma, M)


@pytest.mark.parametrize("x, T, terms, aligned", [
    (2000, 400.0, (314, 426), (320, 432)), (2000, 2000.0, (1551, 1949), (1552, 1952)),
    (2000, 8000.0, (6149, 7228), (6152, 7232))])
def test_zeta_terms_of_the_contour_grids(x, T, terms, aligned):
    # each grid's M is the least with Backlund's bound at max|t| within
    # eps (sigma - 1)/sigma, about a quarter of the former max(1000, 2T) and
    # max(1000, 4T) terms; the grids take it rounded up to a multiple of 8
    got = []
    for sigma, ts in _contour_grids(x, T):
        M, s, tol = zm._zeta_terms(sigma, ts[-1]), complex(sigma, ts[-1]), EPS * (sigma - 1) / sigma
        assert zm._em_remainder(s, M) <= tol < zm._em_remainder(s, M - 1)
        got.append((M, zm._aligned_terms(sigma, ts[-1])))
    assert tuple(zip(*got)) == (terms, aligned)


def test_contour_ratio_error_at_tnp_defaults(mp_zeta):
    # Z = zeta(2s)/zeta(s) at 41 nodes of tnp's default half grid: the
    # former 1000- and 1600-term grids were 4.0e-13 relative off
    (sigma, ts), _ = _contour_grids(2000, 400.0)
    at = np.linspace(0, len(ts) - 1, 41).astype(int)
    got = zm._z_on_grid("liouville", sigma, ts)[at]
    want = np.array([mp_zeta(2 * v) / mp_zeta(v) for v in sigma + 1j * ts[at]])
    assert np.max(np.abs(got / want - 1)) < 1e-13


def test_em_remainder_bounds_the_scalar_tail(mp_zeta):
    # zeta_strip shares the tail: its error at a few terms lies within
    # Backlund's bound plus the rounding of the head's phases -s log n
    for s in (1.5 + 0j, 1.1 + 30j, 2.0 + 60j, 0.75 - 20j):
        for M in (10, 20, 40):
            head = math.fsum(k ** -s.real for k in range(1, M + 1))
            err = abs(zm.zeta_strip(s, terms=M) - mp_zeta(s))
            rounding = 4 * EPS * (1 + abs(s) * math.log(M)) * (head + abs(mp_zeta(s)))
            assert err <= zm._em_remainder(s, M) + rounding, (s, M)


def test_zeta_strip_domain_errors():
    with pytest.raises(ValueError):
        zm.zeta_strip(1.0)
    with pytest.raises(ValueError):
        zm.zeta_strip(-0.2 + 3.0j)


def test_z_lambda_residual_small():
    # sum lambda(n) n^{-2} converges to zeta(4)/zeta(2) = pi^2/15
    assert zm.z_lambda_residual(2.0, 10**5) < 1e-3
    # explicit series cross-check
    lam = ac.liouville_range(1, 10**5 + 1).astype(np.float64)
    n = np.arange(1, 10**5 + 1, dtype=np.float64)
    series = float(np.dot(lam, n**-2.0))
    assert series == pytest.approx(math.pi**2 / 15, abs=1e-3)


@pytest.mark.parametrize("s", [2.0, 1.5, 3.25, 2.0 + 7.5j])
def test_z_lambda_residual_against_mpmath_and_complex_series(s):
    # the residual moves by at most its series' error. At real s the series
    # is one real power per term (within an ulp) and fsum: 2 eps sum|terms|
    # from mpmath's. The complex exponential of -s log n carries about
    # (|s| log N + 4) eps relative error per term, which bounds its distance
    # from both; a complex s still takes it
    N = 10**4
    lam = ac.liouville_range(1, N + 1).astype(np.float64)
    n = np.arange(1, N + 1, dtype=np.float64)
    s = complex(s)
    target = zm.zeta_strip(2 * s) / zm.zeta_strip(s)
    with mpmath.workdps(30):
        exact = complex(mpmath.fsum(int(a) * mpmath.power(k, -mpmath.mpc(s))
                                    for k, a in enumerate(lam, start=1)))
    complex_series = fsum_complex(lam * np.exp(-s * np.log(n)))
    ulp = EPS * fsum(n ** -s.real)
    k_exp = abs(s) * math.log(N) + 4
    got = zm.z_lambda_residual(s, N)
    assert abs(got - abs(exact - target)) <= (2 if s.imag == 0 else k_exp) * ulp
    assert abs(got - abs(complex_series - target)) <= k_exp * ulp


@pytest.mark.parametrize("N", [2, 12, 2**18, 2**18 + 1, 10**6])
@pytest.mark.parametrize("s", [2.0, 2.0 + 7.5j])
def test_streamed_lambda_series_equals_whole_array_series(s, N):
    # N = 2^18 is one segment to the integer, 2^18 + 1 leaves a piece of one
    # term, and 10^6 spans four segments: the streamed terms are the
    # whole-array ones, and one exact sum does not see where pieces are cut
    got = zm._lambda_series(complex(s), N)
    assert got == oracles.whole_array_lambda_series(ac, s, N)
    assert type(got) is (float if s == 2.0 else complex)


def test_streamed_lambda_series_is_segment_independent(monkeypatch):
    want = [zm._lambda_series(s, 5000) for s in (2.0, 1.5 + 3j)]
    monkeypatch.setattr(ac, "DEFAULT_SEGMENT", 777)
    assert [zm._lambda_series(s, 5000) for s in (2.0, 1.5 + 3j)] == want


def test_z_lambda_residual_peak_allocation_is_one_segment():
    # the whole-array series peaked near 23 MiB at N = 10^6; the stream
    # holds two segment-long float buffers, the sieve's and a piece of lambda
    tracemalloc.start()
    try:
        zm.z_lambda_residual(2.0, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_z_lambda_envelope_at_smallest_n():
    # N = 2: 1 - 1/4 against zeta(4)/zeta(2) = pi^2/15, within the tail bound
    # 1/N plus rounding of about 140 eps
    res = zm.z_lambda_residual(2.0, 2)
    env = zm.z_lambda_envelope(2.0, 2)
    assert res == pytest.approx(abs(0.75 - math.pi**2 / 15), abs=1e-15)
    assert 0.5 < env < 0.5 + 200 * EPS
    assert res <= env
    with pytest.raises(ValueError):
        zm.z_lambda_envelope(1.0, 2)


def test_z_lambda_residual_needs_halfplane():
    with pytest.raises(ValueError):
        zm.z_lambda_residual(1.0, 100)


def test_perron_unit_kind_tracks_integral():
    pr = zm.perron_truncated("unit", 500.0, zm.SmoothCutoff(0.2), 120.0)
    assert abs(pr.integral - pr.smoothed_sum) <= pr.envelope
    assert pr.halving_delta < 1e-4
    # ramp only reweights n in (x(1-delta), x], so the sharp sum is close
    assert abs(pr.sharp_sum - pr.smoothed_sum) <= 0.2 * 500.0 + 1.0


def test_perron_liouville_envelope_and_halving():
    pr = zm.perron_truncated("liouville", 800.0, zm.SmoothCutoff(0.1), 150.0)
    assert abs(pr.integral - pr.smoothed_sum) <= pr.envelope
    assert pr.halving_delta < 1e-4
    assert abs(pr.integral.imag) < 1e-9


def test_perron_smoothed_sum_is_weighted_partial_sum():
    x, c = 300.0, zm.SmoothCutoff(0.25)
    pr = zm.perron_truncated("liouville", x, c, 80.0)
    lam = ac.liouville_range(1, int(x) + 1)
    direct = math.fsum(int(lam[n - 1]) * zm.psi_delta(n / x, c)
                       for n in range(1, int(x) + 1))
    assert pr.smoothed_sum == pytest.approx(direct, abs=1e-9)
    sharp = int(ac.summatory_lambda(int(x)))
    assert pr.sharp_sum == sharp
