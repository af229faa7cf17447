"""Dirichlet polynomial grids, mean values, and large-value measures."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from liouville_lab import arith_core, cli, dirichlet_poly as dp, zeta_mellin as zm
from liouville_lab.util import fsum

import oracles


def test_coeff_seq_validation():
    with pytest.raises(ValueError):
        dp.CoeffSeq(5, 5, np.zeros(0))
    with pytest.raises(ValueError):
        dp.CoeffSeq(-1, 4, np.zeros(5))
    with pytest.raises(ValueError):
        dp.CoeffSeq(0, 4, np.zeros(5))


def test_coeff_seq_support_is_lo_exclusive():
    c = dp.CoeffSeq(10, 13, np.array([1.0, 2.0, 3.0]))
    assert c.n_array.tolist() == [11.0, 12.0, 13.0]
    assert c.sum_sq == pytest.approx(14.0)


def test_coeffs_from_dict_round_trip():
    c = dp.coeffs_from_dict({3: 1.0 + 2.0j, 7: -1.0})
    assert c.support_lo == 2 and c.support_hi == 7
    assert c.values[0] == 1.0 + 2.0j
    assert c.values[-1] == -1.0
    assert np.count_nonzero(c.values) == 2


def test_prime_band_coeffs_frozen():
    c = dp.prime_band_coeffs(10, 1.0)
    nz = {int(n): v for n, v in zip(c.n_array, c.values) if v != 0}
    assert sorted(nz) == [11, 13, 17, 19]
    assert nz[11] == pytest.approx(-1 / 11)
    assert nz[19] == pytest.approx(-1 / 19)


# ------------------------------------------------------ grid kernel

EPS = np.finfo(np.float64).eps


def _unimodular(n, seed=0):
    return np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=n))


def _phase_case(name):
    """(logn, vals, ts) for one path of _phase_sum."""
    logn = np.log(np.arange(1, 301, dtype=np.float64))
    dense = _unimodular(300)
    band = dp.prime_band_coeffs(1000, 0.15)
    zlogn = np.log(np.arange(1, 3001, dtype=np.float64))
    ns = np.arange(2001, 4001, dtype=np.float64)
    lam = np.array([oracles.liouville(int(n)) for n in ns], dtype=np.float64)
    nudged = np.linspace(0.0, 200.0, 1001)
    nudged[500] += 1e-9  # off the even grid by far more than a few ulps
    return {
        "dense": (logn, dense, np.linspace(0.0, 800.0, 2001)),
        "prime-band": (np.log(band.n_array), band.values, np.linspace(0.0, 300.0, 4001)),
        "all-zero": (np.log(band.n_array), 0 * band.values, np.linspace(0.0, 300.0, 401)),
        "zeta-sigma": (-zlogn, np.exp(-1.3 * zlogn), np.linspace(0.0, 400.0, 1001)),
        "parseval-sign": (-np.log(ns), lam / ns, np.linspace(0.0, 600.0, 2401)),
        "t0-offset": (logn, dense, np.linspace(1234.5, 1300.0, 1037)),
        "descending": (logn, dense, np.linspace(50.0, -50.0, 333)),
        "count-1": (logn, dense, np.array([17.3])),
        "count-2": (logn, dense, np.array([3.0, 4.5])),
        "count-10": (logn, dense, np.linspace(0.0, 9.0, 10)),  # B = 3, G = 4
        "uneven-zeta": (-zlogn, np.exp(-1.3 * zlogn), np.array([0.5, 2.0, 37.0])),
        "uneven-random": (logn, dense, np.sort(np.random.default_rng(1).uniform(0, 500, 777))),
        "uneven-nudged": (logn, dense, nudged),
    }[name]


_EVEN = ["dense", "prime-band", "all-zero", "zeta-sigma", "parseval-sign", "t0-offset",
         "descending", "count-2", "count-10"]
_UNEVEN = ["count-1", "uneven-zeta", "uneven-random", "uneven-nudged"]


def _kernel(kernel, logn, vals, ts, even):
    # the step _phase_sum's drift test passes on, or 0 for an uneven grid
    dt = (ts[-1] - ts[0]) / (len(ts) - 1) if even else 0.0
    if kernel == "taylor-fft":
        return dp._taylor_fft_sum(logn, vals, ts, dt)
    return dp._bsgs_sum(logn, vals, ts, dt)


def _parseval_case(X):
    # parseval_link's polynomial at h = 50, delta = 1/2 on the half-line
    # step-halving grid of step 0.25 (8X/12.5 + 1 nodes)
    ns = np.arange(X + 1, 2 * X + 1, dtype=np.float64)
    lam = arith_core.liouville_range(X + 1, 2 * X + 1).astype(np.float64)
    return -np.log(ns), lam / ns, dp._grid(0.0, X / 12.5, 0.5)


def _mean_value_case(N, T):
    # N unimodular terms on the step-halving grid of [0, T]
    logn = np.log(np.arange(1, N + 1, dtype=np.float64))
    return logn, _unimodular(N), dp._grid(0.0, T, dp._step_limit(N))


@pytest.mark.parametrize("kernel, name", [("bsgs", n) for n in _EVEN + _UNEVEN + ["mean-value-500"]]
                         + [("taylor-fft", n) for n in _EVEN + ["parseval-1e5"]])
def test_phase_sum_matches_direct_oracle(kernel, name):
    # rounding of the phases t y, as in one exponential per node and term;
    # the Taylor-FFT kernel adds its remainder r^{J+1}/(J+1)! e^r sum|v|,
    # at most eps sum|v| by its choice of J. mean-value-500 has 79129 nodes,
    # B = 281 and G = 282: its doubled rows are products of up to 9 factors
    if name == "parseval-1e5":
        logn, vals, ts = _parseval_case(10**5)
        sel = slice(None, None, 97)
    elif name == "mean-value-500":
        logn, vals, ts = _mean_value_case(500, 5000.0)
        assert len(ts) == 79129
        sel = slice(None, None, 97)
    else:
        logn, vals, ts = _phase_case(name)
        sel = slice(None)
    got = _kernel(kernel, logn, vals, ts, name not in _UNEVEN)[sel]
    ref = oracles.direct_phase_sum(logn, vals, ts[sel])
    bound = 4 * EPS * (1 + np.max(np.abs(ts)) * np.max(np.abs(logn))) * np.sum(np.abs(vals))
    if kernel == "taylor-fft":
        bound += EPS * np.sum(np.abs(vals))
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= bound


def test_phase_sum_uneven_grid_goes_direct_at_any_size(monkeypatch):
    # a 3201-node parseval grid, one node nudged off it: the direct sum
    calls = []
    monkeypatch.setattr(dp, "_bsgs_sum", lambda lg, v, ts, dt: calls.append(("bsgs", dt)))
    monkeypatch.setattr(dp, "_taylor_fft_sum", lambda lg, v, ts, dt: calls.append(("fft", dt)))
    logn, vals, ts = _parseval_case(10**4)
    ts[7] += 1e-9
    dp._phase_sum(logn, vals, ts)
    assert calls == [("bsgs", 0.0)]


def _dispatched(argv, monkeypatch, capsys):
    # (kernel, N, K) of every grid a CLI run hands to a kernel
    seen = []

    def recorded(name, run):
        def call(logn, vals, ts, dt):
            seen.append((name, len(vals), len(ts)))
            return run(logn, vals, ts, dt)
        return call
    monkeypatch.setattr(dp, "_bsgs_sum", recorded("bsgs", dp._bsgs_sum))
    monkeypatch.setattr(dp, "_taylor_fft_sum", recorded("taylor-fft", dp._taylor_fft_sum))
    assert cli.main(argv + ["--seed", "0"]) == 0
    capsys.readouterr()
    return seen


@pytest.mark.parametrize("argv, kernel, grids", [
    (["tnp"], "bsgs", {(320, 16001), (432, 16001)}),
    (["mean-value", "--n", "500", "--t", "5000", "--count", "1"], "bsgs", {(500, 18861)}),
    (["halasz", "--n", "500", "--t", "5000"], "bsgs", set()),
    (["large-values", "--q", "1000", "--t", "3000"], "bsgs", {(135, 58069)}),
    (["parseval-link"], "taylor-fft", {(10000, 338)}),
    (["parseval-link", "--x", "100000"], "taylor-fft", {(100000, 3367)}),
    (["tnp", "--perron-t", "2000"], "bsgs", {(1552, 80001), (1952, 80001)}),
])
def test_phase_sum_dispatch_by_measured_crossover(argv, kernel, grids, monkeypatch, capsys):
    # few terms over many nodes stay on baby-step/giant-step: mean-value,
    # halasz, large-values and the two tnp zeta grids (N terms, K nodes),
    # at T = 400 and 2000; parseval-link's X terms over
    # ceil(T log(2X/(X+1))/_EM_REACH) + 1 nodes, T = X/(h delta^2), take
    # Taylor-FFT
    seen = _dispatched(argv, monkeypatch, capsys)
    assert seen and {name for name, _, _ in seen} == {kernel}
    assert grids <= {(N, K) for _, N, K in seen}


def test_phase_sum_dispatch_splits_long_zeta_grids(monkeypatch):
    # tnp's contour at T = 10500: both zeta grids have 420001 nodes
    # (M = 2^20), where the rule asks for 9000 terms; the 8064 of zeta(s) stay
    # on baby-step/giant-step and the 9352 of zeta(2s) take Taylor-FFT. The
    # kernels are stubbed, as only the dispatch is under test
    seen = []

    def recorded(name):
        def call(logn, vals, ts, dt):
            seen.append((name, len(vals), len(ts)))
            return np.zeros(len(ts), dtype=np.complex128)
        return call
    monkeypatch.setattr(dp, "_bsgs_sum", recorded("bsgs"))
    monkeypatch.setattr(dp, "_taylor_fft_sum", recorded("taylor-fft"))
    zm.perron_truncated("liouville", 2000, zm.SmoothCutoff(0.1), 10500.0)
    assert sorted(seen) == [("bsgs", 8064, 420001), ("taylor-fft", 9352, 420001)]


@pytest.mark.parametrize("N, K, kernel", [
    (8835, 20, "bsgs"), (4946, 56, "bsgs"), (28799, 20, "bsgs"), (28800, 20, "taylor-fft"),
    (7199, 100, "bsgs"), (7200, 100, "taylor-fft"), (1799, 300, "bsgs"), (1800, 300, "taylor-fft"),
])
def test_phase_sum_dispatch_below_two_to_the_eleven(N, K, kernel, monkeypatch):
    # even grids of K <= 512 nodes (M <= 2^10): the floor doubles per
    # halving of M, 28800 terms at M = 2^6, 7200 at 2^8 and 1800 at 2^10,
    # so 8835 terms on 20 nodes and 4946 on 56 stay on baby-step/giant-step
    seen = []

    def recorded(name):
        def call(*args):
            seen.append(name)
            return np.zeros(K, dtype=np.complex128)
        return call
    monkeypatch.setattr(dp, "_bsgs_sum", recorded("bsgs"))
    monkeypatch.setattr(dp, "_taylor_fft_sum", recorded("taylor-fft"))
    logn = np.log(np.arange(2, N + 2, dtype=np.float64))
    dp._phase_sum(logn, np.ones(N), np.linspace(0.0, 10.0, K))
    assert seen == [kernel]


def test_phase_sum_takes_giant_and_baby_steps(monkeypatch):
    # on an even grid of 4001 nodes B = 63 and G = 64, and both sets of rows
    # are built by doubling: each nonzero term costs ceil(log2 G) + 1 giant
    # and ceil(log2 B) baby exponentials, not one per row, and zero terms
    # cost none
    band = dp.prime_band_coeffs(1000, 0.15)
    logn = np.log(band.n_array)
    ts = np.linspace(0.0, 300.0, 4001)
    sizes = []
    exp = np.exp
    monkeypatch.setattr(dp.np, "exp", lambda z: sizes.append(np.size(z)) or exp(z))
    dp._phase_sum(logn, band.values, ts)
    assert sum(sizes) == (6 + 1 + 6) * np.count_nonzero(band.values)


@pytest.mark.parametrize("kernel", ["bsgs", "taylor-fft"])
def test_phase_sum_error_against_mpmath(kernel):
    # 40 nodes of the mean-value grid at N = 500, T = 5000: each kernel's
    # worst error stays within twice that of one exponential per node and term
    N, T = 500, 5000.0
    vals = _unimodular(N)
    logn = np.log(np.arange(1, N + 1, dtype=np.float64))
    step = math.pi / (4.0 * math.log(N))
    ts = np.linspace(0.0, T, 2 * int(math.ceil(T / step)) + 1)
    idx = np.random.default_rng(2).choice(len(ts), 40, replace=False)
    got = _kernel(kernel, logn, vals, ts, True)[idx]
    ref = oracles.direct_phase_sum(logn, vals, ts[idx])
    with mpmath.workdps(30):
        logs = [mpmath.log(n) for n in range(1, N + 1)]
        coef = [mpmath.mpc(complex(a)) for a in vals]
        exact = np.array([complex(mpmath.fsum(a * mpmath.expj(mpmath.mpf(float(t)) * lg)
                                              for a, lg in zip(coef, logs)))
                          for t in ts[idx]])
    assert np.max(np.abs(got - exact)) <= 2 * np.max(np.abs(ref - exact))


def test_trap_matches_each_former_copy():
    # the exactly rounded sum of the weighted samples, whatever the BLAS
    rng = np.random.default_rng(3)
    real = rng.uniform(size=1001)
    dt = 0.1234567
    for samples, step in ((real, dt), (real[::2], 2 * dt)):
        weighted = samples.copy()
        weighted[[0, -1]] /= 2
        assert dp._trap(samples, step) == math.fsum(weighted) * step


def test_square_integral_node_counts(monkeypatch, capsys):
    # ceil((b - a) sigma/_EM_REACH) + 1 nodes per interval, sigma = log N
    # or log(2X/(X+1)): 18861 for mean-value (79129 on the step-halving
    # grid), 4 x 237 for halasz (4 x 991) and 338 for parseval-link (3201)
    nodes = []

    def recorded(logn, vals, ts):
        nodes.append(len(ts))
        return phase_sum(logn, vals, ts)
    phase_sum = dp._phase_sum
    monkeypatch.setattr(dp, "_phase_sum", recorded)
    for argv, want in ((["mean-value", "--n", "500", "--t", "5000", "--count", "1"], [18861]),
                       (["halasz", "--n", "500", "--t", "5000"], [237] * 4),
                       (["parseval-link"], [338])):
        nodes.clear()
        assert cli.main(argv) == 0
        assert nodes == want
    capsys.readouterr()
    assert dp._em_intervals(5000.0, math.log(500)) == 18860
    assert dp._em_intervals(0.0, 1.0) == 0 and dp._em_intervals(1e-300, 0.0) == 1
    assert dp._em_intervals(math.inf, 1.0) == math.inf


def test_grid_rules():
    # 2 ceil((b - a)/step) + 1 nodes, none added at T = 0; the large-value
    # cells are the node pairs, the step limit is pi/(4 log max(N, 3))
    assert dp._nodes(0.0, 1.0, 0.5) == 5 and dp._nodes(0.0, 1.01, 0.5) == 7
    assert dp._nodes(0.0, 0.0, 0.5) == 1
    assert dp._grid(2.0, 3.0, 0.5).tolist() == [2.0, 2.25, 2.5, 2.75, 3.0]
    assert dp._step_limit(1) == dp._step_limit(3) == math.pi / (4.0 * math.log(3))
    assert dp._step_limit(500) == math.pi / (4.0 * math.log(500))
    exceed = np.array([0, 0, 1, 0, 0, 0, 0, 1, 0], dtype=bool)
    assert dp._cell_hits(exceed).tolist() == [True, True, False, True]


def test_tsubset_validation_and_measure():
    sub = dp.TSubset([(0.0, 1.0), (2.0, 4.5)], 10.0)
    assert sub.measure == pytest.approx(3.5)
    with pytest.raises(ValueError):
        dp.TSubset([(1.0, 0.5)], 10.0)
    with pytest.raises(ValueError):
        dp.TSubset([(0.0, 2.0), (1.0, 3.0)], 10.0)
    with pytest.raises(ValueError):
        dp.TSubset([(0.0, 11.0)], 10.0)


def test_mean_value_against_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(4):
        a = rng.normal(size=40) + 1j * rng.normal(size=40)
        c = dp.CoeffSeq(0, 40, a)
        for T in (25.0, 160.0):
            mv = dp.mean_value_integral(c, T)
            ref = oracles.mean_value_closed_form(a, T)
            assert abs(mv.value - ref) <= mv.quadrature_bound + 64 * EPS * ref
            assert mv.quadrature_bound < 1e-6 * ref


def test_gram_oracle_matches_double_loop():
    rng = np.random.default_rng(11)
    a = rng.normal(size=40) + 1j * rng.normal(size=40)
    ns = np.arange(1, 41)
    for T in (25.0, 160.0):
        ref = oracles.mean_value_closed_form(a, T)
        assert oracles.gram_integral(ns, a, [(0.0, T)], fsum) == pytest.approx(ref, rel=1e-12)
    # the interval form adds over a split of [0, T]
    parts = oracles.gram_integral(ns, a, [(0.0, 60.0), (60.0, 160.0)], fsum)
    assert parts == pytest.approx(oracles.mean_value_closed_form(a, 160.0), rel=1e-12)


def _assert_certified(value, bound, exact):
    # the quadrature bound holds against the exact integral, up to the
    # oracle's own rounding
    assert abs(value - exact) <= bound + 64 * EPS * abs(exact)


def _gaussian(N, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=N) + 1j * rng.normal(size=N)


@given(st.integers(min_value=1, max_value=500), st.floats(min_value=0.01, max_value=5000.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_mean_value_quadrature_bound_holds(N, T, seed):
    a = _gaussian(N, seed)
    mv = dp.mean_value_integral(dp.CoeffSeq(0, N, a), T)
    _assert_certified(mv.value, mv.quadrature_bound,
                      oracles.gram_integral(np.arange(1, N + 1), a, [(0.0, T)], fsum))


@given(st.integers(min_value=1, max_value=500), st.floats(min_value=10.0, max_value=5000.0),
       st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32 - 1))
@example(N=445, limit=10.0, k=1, seed=0)  # beat the step-halving delta on [2.70, 6.37]
@settings(max_examples=30, deadline=None)
def test_halasz_quadrature_bound_holds(N, limit, k, seed):
    edges = np.sort(np.random.default_rng(seed).uniform(0.0, limit, 2 * k))
    assume(np.all(np.diff(edges) > 0))
    intervals = list(zip(edges[::2].tolist(), edges[1::2].tolist()))
    a = _gaussian(N, seed)
    hs = dp.halasz_subset_integral(dp.CoeffSeq(0, N, a), dp.TSubset(intervals, limit))
    _assert_certified(hs.value, hs.quadrature_bound,
                      oracles.gram_integral(np.arange(1, N + 1), a, intervals, fsum))


_FROZEN = [
    (500, [(0.0, 5000.0)], 0),
    (300, [(0.0, 500.0)], 1),
    (40, [(0.0, 160.0)], 2),
    (500, [(0.0, 5.0), (40.0, 44.0), (120.0, 121.0), (3000.0, 3100.0)], 4),
]


def _frozen_integral(N, intervals, seed):
    a = _gaussian(N, seed)
    c = dp.CoeffSeq(0, N, a)
    if len(intervals) == 1:
        res = dp.mean_value_integral(c, intervals[0][1])
    else:
        res = dp.halasz_subset_integral(c, dp.TSubset(intervals, 5000.0))
    return res, oracles.gram_integral(np.arange(1, N + 1), a, intervals, fsum)


@pytest.mark.parametrize("N, intervals, seed", _FROZEN)
def test_quadrature_error_at_rounding_level_frozen(N, intervals, seed):
    # the bound is at most 1e-6 relative, while the value is within
    # rounding of the exact integral: leaving out one endpoint correction
    # or the centring moves it far more
    res, exact = _frozen_integral(N, intervals, seed)
    _assert_certified(res.value, res.quadrature_bound, exact)
    assert res.quadrature_bound <= 1e-6 * exact
    assert abs(res.value - exact) <= 1e-13 * exact


@pytest.mark.parametrize("N, intervals, seed", _FROZEN)
def test_halving_delta_is_three_times_true_error_frozen(N, intervals, seed):
    # Richardson, behind tnp's contour-step-halving row: on _grid's nodes
    # the coarse trapezoid sum (alternate nodes) errs four times as much as
    # the fine one for a smooth integrand, so their difference is three
    # times the fine sum's error
    a = _gaussian(N, seed)
    logn = np.log(np.arange(1, N + 1, dtype=np.float64))
    fine = coarse = 0.0
    for lo, hi in intervals:
        ts = dp._grid(lo, hi, dp._step_limit(N))
        f = np.abs(dp._phase_sum(logn, a, ts)) ** 2
        dt = (hi - lo) / (len(ts) - 1)
        fine += dp._trap(f, dt)
        coarse += dp._trap(f[::2], 2 * dt)
    exact = oracles.gram_integral(np.arange(1, N + 1), a, intervals, fsum)
    delta = abs(fine - coarse) / fine
    _assert_certified(fine, delta * exact, exact)
    assert 0.3 <= abs(fine - exact) / (delta * exact) <= 0.35


@pytest.mark.parametrize("y0", [0.0, 40.0])
def test_endpoint_corrections_on_two_frequencies(y0):
    # f = |e^{i t y0} + e^{i t (y0 + 1)}/2|^2 = 5/4 + cos t has derivatives
    # as large as the bound allows, so the 23-interval rule is off by its
    # remainder, 8e-13 relative: leaving out the last correction makes it
    # 1.3e-11, the first 4e-3, and at y0 = 40 the uncentred sums cancel
    # terms of size 41^15
    a, b = 0.3, 37.1
    value, bound = dp._square_integral(np.array([y0, y0 + 1.0]), np.array([1.0, 0.5]), [(a, b)])
    exact = math.fsum([1.25 * b, -1.25 * a, math.sin(b), -math.sin(a)])
    assert abs(value - exact) <= min(bound, 3e-12 * exact)


@pytest.mark.parametrize("reach", [0.5, 1.0, dp._EM_REACH, 4.0])
def test_quadrature_bound_holds_at_every_step(reach, monkeypatch):
    rule = dp._EM_REACH
    # steps reach/sigma from four times finer than the rule's to 2.4 times
    # coarser: the bound grows with the step and holds at each
    monkeypatch.setattr(dp, "_EM_REACH", reach)
    a = _gaussian(200, 5)
    ns = np.arange(1, 201)
    mv = dp.mean_value_integral(dp.CoeffSeq(0, 200, a), 700.0)
    _assert_certified(mv.value, mv.quadrature_bound, oracles.gram_integral(ns, a, [(0.0, 700.0)], fsum))
    intervals = [(3.0, 40.0), (41.0, 42.5), (300.0, 420.0)]
    hs = dp.halasz_subset_integral(dp.CoeffSeq(0, 200, a), dp.TSubset(intervals, 500.0))
    _assert_certified(hs.value, hs.quadrature_bound, oracles.gram_integral(ns, a, intervals, fsum))
    rel = mv.quadrature_bound / mv.value
    assert rel <= (1e-6 if reach <= rule else 1.0)


def test_mean_value_ratio_envelope():
    # |integral - T sum|a|^2| <= 8 N sum|a|^2 for unimodular coefficients
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = np.exp(2j * math.pi * rng.random(120))
        c = dp.CoeffSeq(0, 120, a)
        for T in (60.0, 700.0):
            mv = dp.mean_value_integral(c, T)
            assert abs(mv.ratio) <= 8.0


def test_mean_value_rejects_bad_T():
    c = dp.CoeffSeq(0, 4, np.ones(4))
    with pytest.raises(ValueError):
        dp.mean_value_integral(c, 0.0)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
def test_t_range_must_be_finite(T):
    # nan passes a bare T <= 0 test; each grid integral must refuse it up front
    with pytest.raises(ValueError, match="finite"):
        dp.mean_value_integral(dp.CoeffSeq(0, 4, np.ones(4)), T)
    with pytest.raises(ValueError, match="finite"):
        dp.large_value_measure(dp.prime_band_coeffs(20, 1.0), T, 0.1)
    with pytest.raises(ValueError, match="finite"):
        zm.perron_truncated("liouville", 100.0, zm.SmoothCutoff(0.1), T)


def test_halasz_subset_bound_holds():
    rng = np.random.default_rng(3)
    a = np.exp(2j * math.pi * rng.random(80))
    c = dp.CoeffSeq(0, 80, a)
    sub = dp.TSubset([(0.0, 5.0), (40.0, 44.0), (120.0, 121.0)], 200.0)
    hs = dp.halasz_subset_integral(c, sub)
    assert hs.value <= hs.bound
    assert hs.measure == pytest.approx(10.0)
    assert hs.quadrature_bound < 1e-6 * hs.value
    empty = dp.halasz_subset_integral(c, dp.TSubset([], 200.0))
    assert (empty.value, empty.measure, empty.quadrature_bound) == (0.0, 0.0, 0.0)


def test_halasz_value_matches_mean_value_on_prefix():
    # the subset [0, T] must reproduce the full mean value integral
    rng = np.random.default_rng(9)
    a = rng.normal(size=30).astype(complex)
    c = dp.CoeffSeq(0, 30, a)
    T = 30.0
    hs = dp.halasz_subset_integral(c, dp.TSubset([(0.0, T)], T))
    mv = dp.mean_value_integral(c, T)
    assert hs.value == pytest.approx(mv.value, rel=1e-6)


def test_large_value_measure_full_cover():
    # a single unit coefficient keeps |poly| = 1 > threshold everywhere
    c = dp.coeffs_from_dict({3: 1.0})
    rep = dp.large_value_measure(c, 4.0, gamma=1.0 / 9.0)
    assert rep.measure == pytest.approx(4.0, rel=1e-9)
    assert rep.threshold == pytest.approx(2.0 ** (-1.0 / 9.0))


def test_large_value_measure_empty_set():
    # tiny coefficient never exceeds the threshold
    c = dp.coeffs_from_dict({3: 1e-6})
    rep = dp.large_value_measure(c, 4.0, gamma=1.0 / 9.0)
    assert rep.measure == 0.0
    assert rep.cells == 0
    assert rep.measure <= rep.bound


def test_large_value_measure_rejects_low_support():
    with pytest.raises(ValueError):
        dp.large_value_measure(dp.coeffs_from_dict({2: 1.0}), 1.0, 0.1)


@given(st.integers(min_value=2, max_value=60),
       st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_prime_band_support_property(Q, delta):
    c = dp.prime_band_coeffs(Q, delta)
    ns = c.n_array[np.abs(c.values) > 0].astype(int)
    for p in ns:
        assert Q < p <= (1 + delta) * Q
        assert oracles.is_prime(int(p))
    direct = [p for p in oracles.primes_upto(int((1 + delta) * Q) + 1)
              if Q < p <= (1 + delta) * Q]
    assert sorted(ns.tolist()) == direct
