"""Short-window statistics: window sums, variances over dyadic ranges of
starting points, exceptional fractions, twisted window averages, and the
bridge from window variance to a vertical-line second moment. _edges is
the one window-edge rule. variance, exceptional_fraction and exp_sum_avg
take their window sums from one streamed pass, _streamed_windows, one
segment at a time: one slice difference of a prefix per run of windows
of one length (_runs, _window_sums), or, for multiplicative windows with
few windows per run, two gathers at the edges of _edges.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import arith_core
from .dirichlet_poly import _nodes, _square_integral
from .expsum_circle import characters_mod
from .util import BudgetError, ExactSum, PreconditionError, check_mul64, fsum, fsum_complex

WINDOW_BUDGET = 6 * 10**7
_RUN_MIN = 256  # least windows per run, X/h, at which multiplicative passes take runs


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


def _runs(kind, X, h):
    """(firsts, lengths), two lists: the window anchored at x in (X, 2X] has
    length lengths[k] for firsts[k] <= x < firsts[k + 1], the last run
    ending at 2X. Additive windows make one run of length h. A
    multiplicative window has length x - floor(x(X-h)/X) = ceil(xh/X),
    non-decreasing in x, so length l = h+1, ..., 2h holds on the x in
    (floor((l-1)X/h), floor(lX/h)], in exact integer arithmetic."""
    if kind == "additive":
        return [X + 1], [h]
    check_mul64(2 * h, X)
    lengths = np.arange(h + 1, 2 * h + 1, dtype=np.int64)
    return ((lengths - 1) * X // h + 1).tolist(), lengths.tolist()


def _window_sums(prefix, i, counts, lengths, dtype):
    """Sums of f over windows with consecutive stops, the first at prefix
    index i, counts[k] windows of length lengths[k] after one another: one
    slice difference of the prefix per run of one length, written into a
    fresh array of dtype."""
    sums = np.empty(sum(counts), dtype=dtype)
    j = 0
    for m, ell in zip(counts, lengths):
        np.subtract(prefix[i + j:i + j + m], prefix[i + j - ell:i + j - ell + m],
                    out=sums[j:j + m])
        j += m
    return sums


def _streamed_windows(values, kind, X, h):
    """(sums, lengths) of kind's windows, (x, x+h] or ((1-h/X)x, x], for
    every integer x in (X, 2X], in order of x, yielded
    arith_core.DEFAULT_SEGMENT windows at a time: a fresh array of window
    sums of f, float64 for real f (each the double of the exact integer sum
    for integer f) and complex128 for complex f, and the windows' lengths,
    one float when the segment is one run, a float64 array otherwise.
    values(lo, hi) gives f on [lo, hi); additive windows may be longer
    than X.

    The whole span is checked against the budget before any work. One
    prefix of f runs from the first window's start across every segment:
    each segment extends it over its new values and keeps a tail of one
    window length for the next, so each window sum is a difference of the
    floats one np.cumsum would give. Stops are consecutive integers, so a
    segment's sums are one slice difference per run of one length
    (_runs, _window_sums). Multiplicative passes with fewer than _RUN_MIN
    windows per run (X < _RUN_MIN h) take both edges from _edges and
    gather instead: there, a run costs more Python than its windows save.
    Only what the caller keeps outlives a segment, so memory stays
    O(segment + h)."""
    offset = h if kind == "additive" else 0  # the window at x stops at x + offset
    first = X + 1 if kind == "additive" else X - h  # the first window's start
    arith_core._check_span(first, 2 * X + offset + 1)
    gather = kind == "multiplicative" and X < _RUN_MIN * h
    if gather:
        spec = WindowSpec(kind, X, h)
    else:
        firsts, run_lengths = _runs(kind, X, h)
    base, tail = first - 1, np.zeros(1)  # the prefix is 0 up to first - 1
    for a in range(X + 1, 2 * X + 1, arith_core.DEFAULT_SEGMENT):
        b = min(a + arith_core.DEFAULT_SEGMENT, 2 * X + 1)
        prefix = _running_sums(tail, values(base + len(tail), b + offset))
        dtype = np.result_type(prefix.dtype, np.float64)
        if gather:
            starts, stops = _edges(spec, np.arange(a, b, dtype=np.int64))
            sums = np.subtract(prefix[stops - base], prefix[starts - base],
                               out=np.empty(b - a, dtype=dtype))
            lengths, last = np.subtract(stops, starts, dtype=np.float64), int(starts[-1])
        else:
            k, k_end = bisect.bisect_right(firsts, a) - 1, bisect.bisect_left(firsts, b)
            cuts = [a] + firsts[k + 1:k_end] + [b]
            counts = [q - p for p, q in zip(cuts, cuts[1:])]
            ells = run_lengths[k:k_end]
            sums = _window_sums(prefix, a + offset - base, counts, ells, dtype)
            lengths = (float(ells[0]) if len(ells) == 1 else
                       np.repeat(np.array(ells, dtype=np.float64), counts))
            last = b - 1 + offset - ells[-1]
        base, tail = last, prefix[last - base:].copy()
        yield sums, lengths


def _abs_window_means(fname, spec):
    """|window mean of f| for every integer x in (X, 2X], in order of x,
    one streamed segment of windows at a time, each a fresh array."""
    if spec.X > WINDOW_BUDGET:
        raise BudgetError("window count %d exceeds budget" % spec.X)
    for sums, lengths in _streamed_windows(
            lambda lo, hi: _values(fname, lo, hi), spec.kind, spec.X, spec.h):
        sums /= lengths
        yield np.abs(sums) if np.iscomplexobj(sums) else np.abs(sums, out=sums)


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
    j = 0
    for sums, _ in _streamed_windows(twisted, "additive", X, h):
        np.abs(sums, out=abs_sums[j:j + len(sums)])
        j += len(sums)
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
