"""Two-factor weight, its exceptional set, and the band series identity."""

import math

import numpy as np
import pytest

from liouville_lab import arith_core, cli, mr_factorization as mr

import oracles


def test_weight_parameter_validation():
    with pytest.raises(ValueError):
        mr.RamareWeight(1000, 0.1, 100, 100)
    with pytest.raises(ValueError):
        mr.RamareWeight(1000, 1.5, 10, 100)
    with pytest.raises(ValueError):
        mr.RamareWeight(50, 0.1, 10, 100)


def test_weight_matches_interval_oracle_pointwise():
    # every n of the domain: the sieved array against trial division
    for params in ((200, 0.2, 4, 16), (300, 0.15, 5, 30)):
        w = mr.RamareWeight(*params)
        u = mr.weight_array(w)
        for n in range(w.X + 1, w.domain_hi + 1):
            assert u[n - w.X - 1] == pytest.approx(
                oracles.ramare_weight(w, n), abs=1e-12), (params, n)


def test_weight_range_and_support():
    w = mr.RamareWeight(10**4, 0.1, 10, 100)
    u = mr.weight_array(w)
    assert float(u.min()) >= 0.0
    assert float(u.max()) <= 1.0 + 1e-12
    # off-domain inputs evaluate to zero
    assert oracles.ramare_weight(w, 1) == 0.0
    assert oracles.ramare_weight(w, w.X // 2) == 0.0
    assert oracles.ramare_weight(w, 8 * w.X) == 0.0
    # no band prime factor gives zero: a power of two
    assert oracles.ramare_weight(w, 2**14) == 0.0
    assert u[2**14 - w.X - 1] == 0.0


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
    # every reported member recomputes to a genuine mismatch
    for n, uval in rep.members[:40] + rep.members[-40:]:
        ind = 1.0 if w.X < n <= 2 * w.X else 0.0
        assert abs(oracles.ramare_weight(w, n) - ind) > 1e-12
        assert oracles.ramare_weight(w, n) == pytest.approx(uval, abs=1e-12)


def test_err_density_empty_band_degenerate():
    # no prime in (24, 27.5]: weight vanishes and all of (X, 2X] is in Err
    w = mr.RamareWeight(500, 0.1, 24, 25)
    rep = mr.err_set(w)
    assert rep.density == pytest.approx(1.0)
    u = mr.weight_array(w)
    assert float(np.abs(u).max()) == 0.0
    # the identity then degenerates: both sides of the residual add the same
    # doubles, and its envelope vanishes with it
    assert mr.factorization_identity_residual(w, 0.7, 64) == 0.0
    ex = mr.factorization_identity_exact(w, 0.7)
    assert mr.residual_envelope(w, ex, 64) == 0.0


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


# the default band, X = 2e4 and a wider band at X = 1e5, the one-prime band,
# and small weights with wide, narrow and long bands
ENVELOPE_GRID = ((10**4, 0.1, 10, 100), (2 * 10**4, 0.1, 10, 100),
                 (10**5, 0.1, 30, 300), (10**4, 0.1, 60, 61), (500, 0.99, 3, 20),
                 (500, 0.15, 4, 20), (1000, 0.01, 2, 250))


def test_identity_residual_within_envelope():
    # the midpoint theorem bounds the residual at coarse and fine grids alike
    for params in ENVELOPE_GRID:
        w = mr.RamareWeight(*params)
        for t in (0.0, 0.7, 13.0):
            ex = mr.factorization_identity_exact(w, t)
            for nodes in (16, 64, 4096, 4 * w.X):
                r = mr.factorization_identity_residual(w, t, nodes)
                assert r <= mr.residual_envelope(w, ex, nodes), (params, t, nodes)


def test_identity_residual_fails_with_indicator_weight():
    # with u replaced by the indicator of (X, 2X] the error-set term drops
    # out of the left side; on a grid fine enough to resolve it the residual
    # row must see it (at 64 nodes only identity-exact does)
    w = mr.RamareWeight(10**4, 0.1, 10, 100)
    ns = np.arange(w.X + 1, w.domain_hi + 1)
    w._u = (ns <= 2 * w.X).astype(np.float64)
    for t in (0.0, 0.7, 13.0):
        ex = mr.factorization_identity_exact(w, t)
        r = mr.factorization_identity_residual(w, t, 4 * w.X)
        assert r > 10.0 * mr.residual_envelope(w, ex, 4 * w.X), t


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


def test_identity_exact_matches_per_piece_oracle():
    # one evaluation per constant run of pieces, on slices of the sweep,
    # must give the plain per-piece loop's doubles: equality, not closeness
    for params in ((10**4, 0.1, 10, 100), (10**4, 0.1, 60, 61),
                   (500, 0.99, 3, 20), (1000, 0.01, 2, 250)):
        w = mr.RamareWeight(*params)
        for t in (0.0, 0.7, 13.0):
            rep = mr.factorization_identity_exact(w, t)
            want = oracles.per_piece_identity_exact(mr, w, t)
            assert (rep.residual, rep.scale) == want, (params, t)


def test_default_factorization_sieves_once_per_weight(monkeypatch, capsys):
    # one cofactor sieve and one lambda sieve serve the weight and both
    # evaluations of the identity, one per quadrature; the band primes are
    # listed once
    counts = {"_walk": 0, "primes_in": 0, "products": 0}

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapper
    for name in ("_walk", "primes_in"):
        monkeypatch.setattr(arith_core, name, counted(name, getattr(arith_core, name)))
    monkeypatch.setattr(mr._Sweep, "products", counted("products", mr._Sweep.products))
    assert cli.main(["factorization"]) == 0
    assert "factorization" in capsys.readouterr().out
    assert counts["_walk"] <= 2
    assert counts["primes_in"] == 1
    assert counts["products"] == 2


def test_identity_exact_fails_with_indicator_weight():
    # with u replaced by the indicator of (X, 2X] the left side drops the
    # error-set term, and the exact check must see it
    w = mr.RamareWeight(10**4, 0.1, 10, 100)
    ns = np.arange(w.X + 1, w.domain_hi + 1)
    w._u = (ns <= 2 * w.X).astype(np.float64)
    for t in (0.0, 0.7, 13.0):
        rep = mr.factorization_identity_exact(w, t)
        assert rep.ratio > 1e6, t
