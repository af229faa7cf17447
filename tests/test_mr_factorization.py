"""Two-factor weight, its exceptional set, and the band series identity."""

import math

import numpy as np
import pytest

from liouville_lab import arith_core as ac
from liouville_lab import mr_factorization as mr

import oracles


def oracle_weight(w, n):
    """Independent interval-intersection evaluation of the weight.

    For each prime p | n in the admissible band, the Q-set is cut by four
    constraints; its log measure is computed from explicit endpoints.
    """
    one = 1.0 + w.delta
    total = 0.0
    for p, _ in oracles.trial_factor(n):
        if not w.P0 < p <= one * w.Q0:
            continue
        m = n // p
        qmin = math.inf
        for q, _ in (oracles.trial_factor(m) if m > 1 else []):
            if q >= w.P0:
                qmin = q
                break
        lo = max(float(w.P0), p / one, w.X / m)
        hi = min(float(w.Q0), float(p), 2.0 * w.X / m, qmin / one)
        if hi > lo:
            total += math.log(hi / lo)
    return total / math.log(one)


def test_weight_parameter_validation():
    with pytest.raises(ValueError):
        mr.RamareWeight(1000, 0.1, 100, 100)
    with pytest.raises(ValueError):
        mr.RamareWeight(1000, 1.5, 10, 100)
    with pytest.raises(ValueError):
        mr.RamareWeight(50, 0.1, 10, 100)


def test_weight_matches_interval_oracle_pointwise():
    w = mr.RamareWeight(200, 0.2, 4, 16)
    for n in range(150, 550):
        assert mr.ramare_weight(w, n) == pytest.approx(
            oracle_weight(w, n), abs=1e-12), n


def test_weight_array_agrees_with_scalar_path():
    w = mr.RamareWeight(300, 0.15, 5, 30)
    u = mr.weight_array(w)
    ns = np.arange(w.X + 1, w.domain_hi + 1)
    for i in range(0, len(ns), 17):
        assert u[i] == pytest.approx(mr.ramare_weight(w, int(ns[i])), abs=1e-12)


def test_weight_range_and_support():
    w = mr.RamareWeight(10**4, 0.1, 10, 100)
    u = mr.weight_array(w)
    assert float(u.min()) >= 0.0
    assert float(u.max()) <= 1.0 + 1e-12
    # off-domain inputs evaluate to zero
    assert mr.ramare_weight(w, 1) == 0.0
    assert mr.ramare_weight(w, w.X // 2) == 0.0
    assert mr.ramare_weight(w, 8 * w.X) == 0.0
    # no band prime factor gives zero: a power of two
    assert mr.ramare_weight(w, 2**14) == 0.0


def test_constructive_branch_weight_is_one():
    # n in (X(1+d), 2X] whose smallest band prime p lies in (P0(1+d), Q0]
    # and whose cofactor keeps all prime factors off [P0, p(1+d))
    w = mr.RamareWeight(10**4, 0.1, 10, 100)
    one = 1.1
    u = mr.weight_array(w)
    checked = 0
    for n in range(int(w.X * one) + 1, 2 * w.X + 1, 7):
        fac = oracles.trial_factor(n)
        band = [p for p, _ in fac if w.P0 < p <= w.Q0 * one]
        if not band:
            continue
        p = band[0]
        if not w.P0 * one < p <= w.Q0:
            continue
        m = n // p
        mfac = [q for q, _ in (oracles.trial_factor(m) if m > 1 else [])]
        if any(w.P0 <= q < p * one for q in mfac):
            continue
        assert u[n - w.X - 1] == pytest.approx(1.0, abs=1e-12), n
        checked += 1
    assert checked > 50


def test_err_density_envelope():
    w = mr.RamareWeight(10**4, 0.1, 10, 100)
    rep = mr.err_set(w)
    alpha = math.log(10) / math.log(100)
    assert rep.density <= 3.0 * (alpha + 0.1)
    assert len(rep.near_misses) <= len(rep.members)
    # every reported member recomputes to a genuine mismatch
    for n, uval in rep.members[:40] + rep.members[-40:]:
        ind = 1.0 if w.X < n <= 2 * w.X else 0.0
        assert abs(mr.ramare_weight(w, n) - ind) > 1e-12
        assert mr.ramare_weight(w, n) == pytest.approx(uval, abs=1e-12)


def test_err_density_empty_band_degenerate():
    # no prime in (24, 27.5]: weight vanishes and all of (X, 2X] is in Err
    w = mr.RamareWeight(500, 0.1, 24, 25)
    rep = mr.err_set(w)
    assert rep.density == pytest.approx(1.0)
    u = mr.weight_array(w)
    assert float(np.abs(u).max()) == 0.0
    # the identity then degenerates and the residual is at floor level
    assert mr.factorization_identity_residual(w, 0.7, 64) <= 1e-10


def test_identity_residual_node_doubling_trend():
    # quadrature noise is pooled over a fixed t set; the pooled residual
    # must shrink at least linearly (slack allowed per window) as the
    # log-spaced Q-grid refines
    w = mr.RamareWeight(500, 0.15, 4, 20)
    tpool = (0.0, 0.4, 0.8, 1.3, 2.1)
    ladder = (16, 64, 256, 1024)
    pooled = []
    for nodes in ladder:
        rs = [mr.factorization_identity_residual(w, t, nodes) for t in tpool]
        pooled.append(sum(rs) / len(rs))
    for a, b in zip(pooled, pooled[1:]):
        assert b <= 0.75 * a
    # end to end: 64x more nodes must beat linear shrink with slack 4
    assert pooled[-1] <= 4.0 * pooled[0] * (ladder[0] / ladder[-1])


def test_identity_residual_budget_at_fine_grid():
    w = mr.RamareWeight(1000, 0.2, 5, 25)
    ns = np.arange(w.X + 1, w.domain_hi + 1)
    scale = float(np.sum(1.0 / ns))
    # noise floor at a fine grid sits below 1e-6 of the support mass
    assert mr.factorization_identity_residual(w, 0.0, 1 << 16) <= 1e-6 * scale
    # a 4096-node grid is still in the quantization-noise regime
    assert mr.factorization_identity_residual(w, 0.0, 4096) <= 1e-5 * scale


def test_identity_residual_rejects_coarse_grid():
    w = mr.RamareWeight(500, 0.15, 4, 20)
    with pytest.raises(ValueError):
        mr.factorization_identity_residual(w, 0.0, 8)


def test_scan_band_agrees_with_trial_division():
    # P0 = 30 and P0 = 1100 exceed sqrt(hi): qmin then comes only from the
    # prime cofactor the sieve leaves over
    lo2 = 10**6 + 3
    for lo, hi, P0 in ((2, 400, 5), (2, 400, 30), (lo2, lo2 + 400, 5),
                       (lo2, lo2 + 400, 1100)):
        lam, qmin = mr._scan_band(lo, hi, P0)
        for i, n in enumerate(range(lo, hi)):
            assert lam[i] == oracles.liouville(n)
            facs = [p for p, _ in oracles.trial_factor(n) if p >= P0]
            want = facs[0] if facs else math.inf
            assert qmin[i] == want, (n, P0)


def test_identity_residual_matches_per_node_oracle():
    # one evaluation per constant run of nodes must add the same doubles in
    # the same order as the per-node loop: equality, not closeness
    for params in ((10**4, 0.1, 10, 100), (500, 0.1, 24, 25), (10**4, 0.1, 60, 61)):
        w = mr.RamareWeight(*params)
        for nodes in (16, 64, 4096):
            for t in (0.0, 0.7, 13.0):
                got = mr.factorization_identity_residual(w, t, nodes)
                want = oracles.per_node_identity_residual(mr, w, t, nodes)
                assert got == want, (params, nodes, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_identity_rejects_non_finite_t(t):
    w = mr.RamareWeight(500, 0.15, 4, 20)
    with pytest.raises(ValueError):
        mr.factorization_identity_residual(w, t, 64)
    with pytest.raises(ValueError):
        mr.factorization_identity_exact(w, t)


def test_identity_exact_within_envelope():
    for params in ((10**4, 0.1, 10, 100), (10**4, 0.1, 60, 61),
                   (500, 0.99, 3, 20), (1000, 0.01, 2, 250)):
        w = mr.RamareWeight(*params)
        for t in (0.0, 0.7, 13.0):
            rep = mr.factorization_identity_exact(w, t)
            assert rep.scale > 0
            assert rep.residual <= rep.envelope, (params, t)
    # empty band: both sides vanish exactly
    rep = mr.factorization_identity_exact(mr.RamareWeight(500, 0.1, 24, 25), 0.7)
    assert (rep.residual, rep.scale, rep.ratio) == (0.0, 0.0, 0.0)


def test_identity_exact_fails_with_indicator_weight():
    # with u replaced by the indicator of (X, 2X] the left side drops the
    # error-set term, and the exact check must see it
    w = mr.RamareWeight(10**4, 0.1, 10, 100)
    ns = np.arange(w.X + 1, w.domain_hi + 1)
    w._u = (ns <= 2 * w.X).astype(np.float64)
    for t in (0.0, 0.7, 13.0):
        rep = mr.factorization_identity_exact(w, t)
        assert rep.ratio > 1e6, t
