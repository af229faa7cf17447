"""Short-window statistics: window sums, variances over dyadic ranges of
starting points, exceptional fractions, and the bridge from window variance
to a vertical-line second moment.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith_core
from .dirichlet_poly import _phase_sum, _trap
from .util import BudgetError, check_mul64, fsum, fsum_complex

WINDOW_BUDGET = 6 * 10**7


@dataclass
class WindowSpec:
    """kind 'additive' means (x, x+h]; 'multiplicative' means ((1-h/X)x, x]."""

    kind: str
    X: int
    h: int

    def __post_init__(self):
        if self.kind not in ("additive", "multiplicative"):
            raise ValueError("kind must be 'additive' or 'multiplicative'")
        if not (0 < self.h < self.X):
            raise ValueError("need 0 < h < X")


def _values(fname, lo, hi):
    """f(n) for n in [lo, hi). fname is a string or a
    ('liouville_times_character', q, index) tuple."""
    if fname == "liouville":
        return arith_core.liouville_range(lo, hi)
    if fname == "mobius":
        return arith_core.mobius_range(lo, hi)
    if fname == "von_mangoldt_minus_one":
        return arith_core.von_mangoldt_minus_one_range(lo, hi)
    if isinstance(fname, (tuple, list)) and fname[0] == "liouville_times_character":
        from . import expsum_circle

        _, q, index = fname
        table = expsum_circle.characters_mod(int(q))
        chi = table.row(int(index))
        lam = arith_core.liouville_range(lo, hi).astype(np.complex128)
        res = np.arange(lo, hi, dtype=np.int64) % int(q)
        return lam * chi[res]
    raise ValueError("unknown function spec %r" % (fname,))


def short_sum(fname, spec, x):
    """Window sum of f over spec's window anchored at integer x."""
    x = int(x)
    if spec.kind == "additive":
        lo, hi = x + 1, int(math.floor(x + spec.h)) + 1
    else:
        check_mul64(x, spec.X - spec.h)
        lo = (x * (spec.X - spec.h)) // spec.X + 1
        hi = x + 1
    vals = _values(fname, lo, hi)
    if np.iscomplexobj(vals):
        return fsum_complex(vals)
    if vals.dtype == np.int8:
        return int(vals.astype(np.int64).sum())
    return fsum(vals)


@dataclass
class VarianceReport:
    fname: object
    spec: WindowSpec
    mean_square: float
    windows: int
    abs_means: np.ndarray = field(repr=False)


def variance(fname, spec):
    """Average of |window mean of f|^2 over integer x in (X, 2X].

    Single vectorized pass: prefix sums of f, window edges by exact integer
    arithmetic, means aggregated with exact summation. The per-window
    |mean| values are kept (sorted) for exceptional_fraction.
    """
    X, h = spec.X, spec.h
    if X > WINDOW_BUDGET:
        raise BudgetError("window count %d exceeds budget" % X)
    if spec.kind == "additive":
        lo, hi = X + 1, 2 * X + h + 1
    else:
        lo = ((X + 1) * (X - h)) // X
        hi = 2 * X + 1
    vals = _values(fname, lo, hi)
    complex_vals = np.iscomplexobj(vals)
    if vals.dtype == np.int8:
        acc = vals.astype(np.int64)
    else:
        acc = vals.astype(np.complex128 if complex_vals else np.float64)
    prefix = np.concatenate(([0], np.cumsum(acc)))  # prefix[k] = sum vals[:k]

    xs = np.arange(X + 1, 2 * X + 1, dtype=np.int64)
    if spec.kind == "additive":
        starts, stops = xs, xs + h
    else:
        check_mul64(2 * X, X - h)
        starts, stops = (xs * (X - h)) // X, xs
    sums = prefix[stops - lo + 1] - prefix[starts - lo + 1]
    counts = (stops - starts).astype(np.float64)
    means = sums / counts
    sq = np.abs(means) ** 2
    mean_square = fsum(sq) / X
    order = np.sort(np.abs(means))
    return VarianceReport(fname, spec, mean_square, X, order)


def exceptional_fraction(report, tau):
    """Fraction of windows with |mean| >= tau; Chebyshev-compatible."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    k = np.searchsorted(report.abs_means, tau, side="left")
    return float(len(report.abs_means) - k) / report.windows


@dataclass
class ParsevalReport:
    lhs: float
    integral: float
    rhs: float
    envelope: float
    T: float
    halving_delta: float


def parseval_link(X, h, delta):
    """Window variance against the vertical second moment it embeds into.

    lhs is the multiplicative variance of Liouville at (X, h). rhs is
    int_{|t| <= X/(h delta^2)} |Z(1+it)|^2 dt + delta with Z the
    (X, 2X]-restricted series. The integrand has bandwidth log 2, so a
    0.5 step suffices; halving_delta reports the relative change under
    step halving. Envelope lhs <= 50 rhs.
    """
    X, h = int(X), int(h)
    if not delta > 0:
        raise ValueError("delta must be positive")
    lhs = variance("liouville", WindowSpec("multiplicative", X, h)).mean_square
    T = X / (h * delta * delta)
    lam = arith_core.liouville_range(X + 1, 2 * X + 1).astype(np.float64)
    n = np.arange(X + 1, 2 * X + 1, dtype=np.float64)
    ts = np.linspace(0.0, T, 2 * int(math.ceil(T / 0.5)) + 1)
    sq = np.abs(_phase_sum(-np.log(n), lam / n, ts)) ** 2
    dt = ts[1] - ts[0]
    fine = 2.0 * _trap(sq, dt)  # symmetric in t
    coarse = 2.0 * _trap(sq[::2], 2 * dt)
    halving = abs(fine - coarse) / max(fine, 1e-300)
    rhs = fine + delta
    return ParsevalReport(lhs, fine, rhs, 50.0 * rhs, T, halving)


def additive_from_multiplicative_check(X, h):
    """Additive variance against the multiplicative-variance envelope
    40 (delta + max multiplicative variance / delta), delta = h^{-1/2},
    maximum over a geometric grid of X' in [X, 3X]."""
    X, h = int(X), int(h)
    delta = 1.0 / math.sqrt(h)
    lhs = variance("liouville", WindowSpec("additive", X, h)).mean_square
    worst = 0.0
    Xp = float(X)
    while Xp <= 3 * X:
        v = variance("liouville", WindowSpec("multiplicative", int(Xp), h)).mean_square
        worst = max(worst, v)
        Xp *= 1.0 + delta
    bound = 40.0 * (delta + worst / delta)
    return lhs, bound
