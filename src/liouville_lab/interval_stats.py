"""Short-window statistics: window sums, variances over dyadic ranges of
starting points, exceptional fractions, twisted window averages, and the
bridge from window variance to a vertical-line second moment. Every
statistic over many windows takes its sums from one kernel, _window_sums,
with edges from _edges; variance, exceptional_fraction and exp_sum_avg
stream it one segment at a time through _streamed_windows.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import arith_core
from .dirichlet_poly import _nodes, _square_integral
from .expsum_circle import characters_mod
from .util import BudgetError, ExactSum, PreconditionError, check_mul64, fsum, fsum_complex

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
            raise PreconditionError("need 0 < h < X")


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
        _, q, index = fname
        table = characters_mod(int(q))
        chi = table.row(int(index))
        lam = arith_core.liouville_range(lo, hi).astype(np.complex128)
        res = np.arange(lo, hi, dtype=np.int64) % int(q)
        return lam * chi[res]
    raise ValueError("unknown function spec %r" % (fname,))


def _edges(spec, xs):
    """(starts, stops) of spec's windows (start, stop] anchored at xs, an
    integer or an int64 array: (x, x+h] when additive, ((1-h/X)x, x] when
    multiplicative, with exact integer edges."""
    if spec.kind == "additive":
        return xs, xs + spec.h
    check_mul64(np.max(xs), spec.X - spec.h)
    return (xs * (spec.X - spec.h)) // spec.X, xs


def _running_sums(tail, vals):
    """tail, then tail[-1] + vals[0], tail[-1] + vals[0] + vals[1], and so
    on, added left to right by one np.cumsum: a prefix of f carried from one
    segment into the next gives the same floats as one np.cumsum over the
    whole span. int64 for int8 vals, vals' dtype otherwise."""
    dtype = np.int64 if vals.dtype == np.int8 else vals.dtype
    out = np.empty(len(tail) + len(vals), dtype=dtype)
    out[:len(tail)] = tail
    run = out[len(tail) - 1:]
    run[1:] = vals
    np.cumsum(run, out=run)
    return out


def _window_sums(prefix, base, starts, stops):
    """Sums of f over the windows (starts[i], stops[i]] as differences of one
    prefix, where prefix[n - base] is the sum of f up to n."""
    sums = prefix[stops - base]
    sums -= prefix[starts - base]
    return sums


def _streamed_windows(values, edges, X, stat):
    """stat(sums, starts, stops) of the windows (starts, stops] = edges(xs)
    for every integer x in (X, 2X], in order of x, yielded
    arith_core.DEFAULT_SEGMENT windows at a time; values(lo, hi) gives f on
    [lo, hi).

    The whole span is checked against the budget before any work. One
    prefix of f runs from the first window's start across every segment:
    each segment extends it over its new values and keeps a tail of one
    window length for the next, so each window sum is a difference of the
    floats one np.cumsum would give. Only stat's result is handed out, so a
    segment's edges and sums are freed as the next one is built and memory
    stays O(segment + h)."""
    first, _ = edges(X + 1)
    _, last = edges(2 * X)
    arith_core._check_span(first, last + 1)
    base, tail = first - 1, np.zeros(1)  # the prefix is 0 up to first - 1
    for a in range(X + 1, 2 * X + 1, arith_core.DEFAULT_SEGMENT):
        xs = np.arange(a, min(a + arith_core.DEFAULT_SEGMENT, 2 * X + 1), dtype=np.int64)
        starts, stops = edges(xs)
        prefix = _running_sums(tail, values(base + len(tail), stops[-1] + 1))
        sums = _window_sums(prefix, base, starts, stops)
        base, tail = starts[-1], prefix[starts[-1] - base:].copy()
        yield stat(sums, starts, stops)


def _abs_window_means(fname, spec):
    """|window mean of f| for every integer x in (X, 2X], in order of x,
    one streamed segment of windows at a time."""
    if spec.X > WINDOW_BUDGET:
        raise BudgetError("window count %d exceeds budget" % spec.X)
    yield from _streamed_windows(
        lambda lo, hi: _values(fname, lo, hi), lambda xs: _edges(spec, xs), spec.X,
        lambda sums, starts, stops: np.abs(sums / np.subtract(stops, starts, dtype=np.float64)))


def short_sum(fname, spec, x):
    """Window sum of f over spec's window anchored at integer x."""
    start, stop = _edges(spec, int(x))
    vals = _values(fname, start + 1, stop + 1)
    if np.iscomplexobj(vals):
        return fsum_complex(vals)
    if vals.dtype == np.int8:
        return int(vals.astype(np.int64).sum())
    return fsum(vals)


def variance(fname, spec):
    """Average of |window mean of f|^2 over integer x in (X, 2X].

    One streamed pass of the window kernel; the squares of every segment
    go into one exact accumulator."""
    acc = ExactSum()
    for means in _abs_window_means(fname, spec):
        means *= means
        acc.add(means)
    return acc.value() / spec.X


def exceptional_fraction(fname, spec, taus):
    """Fraction of windows with |mean| >= tau, one per tau in taus, from one
    streamed pass of the window kernel; Chebyshev-compatible."""
    taus = [float(tau) for tau in taus]
    if not all(tau > 0 for tau in taus):
        raise ValueError("tau must be positive")
    counts = [0] * len(taus)
    for means in _abs_window_means(fname, spec):
        for i, tau in enumerate(taus):
            counts[i] += int(np.count_nonzero(means >= tau))
    return [count / spec.X for count in counts]


def exp_sum_avg(X, h, alpha):
    """(1/(hX)) sum over x in (X, 2X] of |sum_{x<n<=x+h} lambda(n) e(alpha n)|,
    from one streamed pass of the window kernel over a complex prefix."""
    X, h, alpha = int(X), int(h), float(alpha)

    def twisted(lo, hi):
        lam = arith_core.liouville_range(lo, hi).astype(np.float64)
        return lam * np.exp(2j * np.pi * alpha * np.arange(lo, hi, dtype=np.float64))
    # |sums| of every segment go into one array of X floats, 8 bytes per
    # window, summed by one fsum; the span is checked before it is allocated
    arith_core._check_span(X + 1, 2 * X + h + 1)
    abs_sums = np.empty(X)
    for _ in _streamed_windows(
            twisted, lambda xs: (xs, xs + h), X,
            lambda sums, starts, stops: np.abs(sums, out=abs_sums[starts[0] - X - 1:starts[-1] - X])):
        pass
    return fsum(abs_sums) / (h * X)


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
    step halving. Envelope lhs <= 50 rhs. A grid of more than
    arith_core.SPAN_BUDGET nodes raises BudgetError, and one of fewer than
    3 nodes (T = 0 once h delta^2 overflows) PreconditionError, before any
    sieve runs.
    """
    X, h = int(X), int(h)
    if not delta > 0:
        raise ValueError("delta must be positive")
    scale = h * delta * delta
    T = X / scale if scale > 0 else math.inf
    nodes = _nodes(0.0, T, 0.5) if T <= arith_core.SPAN_BUDGET else math.inf
    if nodes > arith_core.SPAN_BUDGET:
        raise BudgetError("%g t-nodes exceed budget %d" % (nodes, arith_core.SPAN_BUDGET))
    if nodes < 3:
        raise PreconditionError("T = X/(h delta^2) = %g gives %d t-nodes; need at least 3"
                                % (T, nodes))
    lhs = variance("liouville", WindowSpec("multiplicative", X, h))
    lam = arith_core.liouville_range(X + 1, 2 * X + 1).astype(np.float64)
    n = np.arange(X + 1, 2 * X + 1, dtype=np.float64)
    half, halving = _square_integral(-np.log(n), lam / n, [(0.0, T)], 0.5)
    integral = 2.0 * half  # symmetric in t; doubling leaves halving's bits as they are
    rhs = integral + delta
    return ParsevalReport(lhs, integral, rhs, 50.0 * rhs, T, halving)


def additive_from_multiplicative_check(X, h):
    """Additive variance against the multiplicative-variance envelope
    40 (delta + max multiplicative variance / delta), delta = h^{-1/2},
    maximum over a geometric grid of X' in [X, 3X]."""
    X, h = int(X), int(h)
    delta = 1.0 / math.sqrt(h)
    lhs = variance("liouville", WindowSpec("additive", X, h))
    worst = 0.0
    Xp = float(X)
    while Xp <= 3 * X:
        v = variance("liouville", WindowSpec("multiplicative", int(Xp), h))
        worst = max(worst, v)
        Xp *= 1.0 + delta
    bound = 40.0 * (delta + worst / delta)
    return lhs, bound
