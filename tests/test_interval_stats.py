"""Window sums, variance over starting points, and the vertical-line bridge."""

import numpy as np
import pytest

from liouville_lab import interval_stats as ist
from liouville_lab.util import BudgetError

import oracles


def test_window_spec_validation():
    with pytest.raises(ValueError):
        ist.WindowSpec("diagonal", 100, 10)
    with pytest.raises(ValueError):
        ist.WindowSpec("additive", 100, 100)
    with pytest.raises(ValueError):
        ist.WindowSpec("additive", 100, 0)


def test_short_sum_frozen_window():
    # Liouville over (10, 20]: one frozen integer
    spec = ist.WindowSpec("additive", 100, 10)
    assert ist.short_sum("liouville", spec, 10) == -4


def test_short_sum_matches_naive_oracle():
    lam = [0] + [oracles.liouville(n) for n in range(1, 301)]
    spec = ist.WindowSpec("additive", 200, 25)
    for x in (30, 99, 200):
        want = oracles.naive_window_means(lam, [x], [x + 25])[0] * 25
        assert ist.short_sum("liouville", spec, x) == pytest.approx(want)


def test_short_sum_multiplicative_window():
    # ((1 - h/X) x, x] with exact integer edges
    X, h, x = 100, 20, 50
    spec = ist.WindowSpec("multiplicative", X, h)
    lo = (x * (X - h)) // X + 1
    want = sum(oracles.liouville(n) for n in range(lo, x + 1))
    assert ist.short_sum("liouville", spec, x) == want


def test_variance_matches_naive_additive():
    # direct O(X h) recomputation at small size
    X, h = 400, 16
    lam = [0] + [oracles.liouville(n) for n in range(1, 2 * X + h + 1)]
    means = oracles.naive_window_means(lam, list(range(X + 1, 2 * X + 1)),
                                       [x + h for x in range(X + 1, 2 * X + 1)])
    want = sum(m * m for m in means) / X
    rep = ist.variance("liouville", ist.WindowSpec("additive", X, h))
    assert rep.mean_square == pytest.approx(want, rel=1e-12)
    assert rep.windows == X


def test_variance_matches_naive_multiplicative():
    X, h = 300, 30
    lam = [0] + [oracles.liouville(n) for n in range(1, 2 * X + 1)]
    starts = [(x * (X - h)) // X for x in range(X + 1, 2 * X + 1)]
    means = oracles.naive_window_means(lam, starts,
                                       list(range(X + 1, 2 * X + 1)))
    want = sum(m * m for m in means) / X
    rep = ist.variance("liouville", ist.WindowSpec("multiplicative", X, h))
    assert rep.mean_square == pytest.approx(want, rel=1e-12)


def test_variance_mobius_and_character_kinds():
    spec = ist.WindowSpec("additive", 200, 10)
    rep_mu = ist.variance("mobius", spec)
    assert 0.0 <= rep_mu.mean_square <= 1.0
    rep_chi = ist.variance(("liouville_times_character", 4, 1), spec)
    assert 0.0 <= rep_chi.mean_square <= 1.0
    with pytest.raises(ValueError):
        ist.variance("unknown", spec)


def test_variance_budget():
    with pytest.raises(BudgetError):
        ist.variance("liouville",
                     ist.WindowSpec("additive", ist.WINDOW_BUDGET + 1, 10))


def test_exceptional_fraction_chebyshev():
    rep = ist.variance("liouville", ist.WindowSpec("additive", 2000, 50))
    for tau in (0.05, 0.1, 0.3):
        frac = ist.exceptional_fraction(rep, tau)
        assert frac <= rep.mean_square / tau**2 + 1e-12
    # direct count cross-check
    tau = 0.1
    direct = float(np.count_nonzero(rep.abs_means >= tau)) / rep.windows
    assert ist.exceptional_fraction(rep, tau) == pytest.approx(direct)
    with pytest.raises(ValueError):
        ist.exceptional_fraction(rep, 0.0)


def test_exceptional_fraction_monotone():
    rep = ist.variance("liouville", ist.WindowSpec("additive", 1000, 20))
    fr = [ist.exceptional_fraction(rep, tau) for tau in (0.02, 0.1, 0.5, 1.0)]
    assert all(a >= b for a, b in zip(fr, fr[1:]))
    assert ist.exceptional_fraction(rep, 1.0 + 1e-9) == 0.0


def test_parseval_link_envelope_and_certification():
    rep = ist.parseval_link(10**4, 50, 0.25)
    assert rep.T == pytest.approx(10**4 / (50 * 0.25**2))
    assert rep.lhs <= rep.envelope
    assert rep.rhs == rep.integral + 0.25
    assert rep.halving_delta <= 1e-2
    assert rep.integral > 0.0


def test_additive_from_multiplicative_envelope():
    lhs, bound = ist.additive_from_multiplicative_check(5000, 64)
    assert lhs <= bound
    direct = ist.variance("liouville",
                          ist.WindowSpec("additive", 5000, 64)).mean_square
    assert lhs == pytest.approx(direct, rel=1e-12)


def test_variance_decreases_with_window_length():
    # trend over an h-ladder at fixed X (strict decrease at these sizes)
    X = 10**5
    vs = [ist.variance("liouville",
                       ist.WindowSpec("multiplicative", X, h)).mean_square
          for h in (30, 300, 3000)]
    assert vs[0] > vs[1] > vs[2]
