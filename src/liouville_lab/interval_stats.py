"""Short-window statistics: window sums, variances over dyadic ranges of
starting points, exceptional fractions, twisted window averages, and the
bridge from window variance to a vertical-line second moment. _edges is
the one window-edge rule. variance, exceptional_fraction and exp_sum_avg
take their window sums from one streamed pass, _streamed_windows, one
segment at a time: one slice difference of a prefix per run of windows
of one length (_runs, _window_sums), or, for multiplicative windows with
few windows per run, two gathers at the edges of _edges. A set of passes
(variances: an h-list, or the additive pass and the X' ladder of
additive_from_multiplicative_check) reads f from one stream over the
union of its spans (_shared_windows, _value_stream), so lambda and mu
come from one sieve walk per invocation, not one per pass. For lambda and
mu the prefix and the window sums are exact int32, and variance adds
their squares per run of one length into exact integer totals.
parseval_link keeps lambda(n)/n from its variance pass's one walk and
integrates the bridge by dirichlet_poly._square_integral, whose certified
error bound it reports as quadrature_bound.
"""

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import arith_core
from .dirichlet_poly import _em_intervals, _square_integral
from .util import INT64_MAX, BudgetError, ExactSum, PreconditionError, check_mul64, fsum

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


def _value_stream(fname, lo, hi, budget=arith_core.SPAN_BUDGET):
    """values(a, b): f(n) for n in [a, b), where the pieces [a, b) run
    through [lo, hi) in order, each starting where the last stopped. lambda
    and mu come as int8 from one arith_core._stream over [lo, hi), checked
    against budget; Lambda - 1 is sieved per piece."""
    if fname in ("liouville", "mobius"):
        return arith_core._stream(lo, hi, mobius=fname == "mobius", budget=budget)
    if fname == "von_mangoldt_minus_one":
        return arith_core.von_mangoldt_minus_one_range
    raise ValueError("unknown function spec %r" % (fname,))


def _edges(spec, xs):
    """(starts, stops) of spec's windows (start, stop] anchored at the int64
    array xs: (x, x+h] when additive, ((1-h/X)x, x] when multiplicative,
    with exact integer edges."""
    if spec.kind == "additive":
        return xs, xs + spec.h
    check_mul64(np.max(xs), spec.X - spec.h)
    return (xs * (spec.X - spec.h)) // spec.X, xs


def _running_sums(tail, vals):
    """tail, then tail[-1] + vals[0], tail[-1] + vals[0] + vals[1], and so
    on, added left to right by one np.cumsum: a prefix of f carried from one
    segment into the next gives the same floats as one np.cumsum over the
    whole span. int32 for int8 vals (the caller bounds the span by
    arith_core.SPAN_BUDGET = 2^26), vals' dtype otherwise."""
    dtype = np.int32 if vals.dtype == np.int8 else vals.dtype
    out = np.empty(len(tail) + len(vals), dtype=dtype)
    out[:len(tail)] = tail
    run = out[len(tail) - 1:]
    run[1:] = vals
    np.cumsum(run, out=run)
    return out


def _runs(kind, X, h, a, b):
    """(counts, lengths), two int64 arrays: the windows anchored at x in
    [a, b), within (X, 2X], fall in runs of one length in order of x,
    counts[j] windows of length lengths[j]. Additive windows make one run
    of length h. A multiplicative window has length
    x - floor(x(X-h)/X) = ceil(xh/X), non-decreasing in x, so length l
    holds on the x in (floor((l-1)X/h), floor(lX/h)], never empty since
    X > h, in exact integer arithmetic."""
    if kind == "additive":
        return np.array([b - a]), np.array([h])
    check_mul64(2 * h, X)
    lengths = np.arange(-(-a * h // X), -(-(b - 1) * h // X) + 1, dtype=np.int64)
    cuts = np.concatenate(([a], (lengths[1:] - 1) * X // h + 1, [b]))
    return np.diff(cuts), lengths


def _window_sums(prefix, i, counts, lengths):
    """Sums of f over windows with consecutive stops, the first at prefix
    index i, counts[k] windows of length lengths[k] after one another: one
    slice difference of the prefix per run of one length, written into a
    fresh array of the prefix's dtype."""
    sums = np.empty(sum(counts), dtype=prefix.dtype)
    j = 0
    for m, ell in zip(counts, lengths):
        np.subtract(prefix[i + j:i + j + m], prefix[i + j - ell:i + j - ell + m],
                    out=sums[j:j + m])
        j += m
    return sums


def _reads(kind, X, h):
    """(first, offset, segments) of a pass over kind's windows anchored at
    every x in (X, 2X]: the window at x stops at x + offset, segments lists
    the (a, b) of each segment of arith_core.DEFAULT_SEGMENT windows, x in
    [a, b), and the pass reads f on [first, 2X + offset] in pieces, one
    after another, the piece of segment (a, b) ending at b + offset."""
    offset = h if kind == "additive" else 0
    first = X + 1 if kind == "additive" else X - h  # the first window's start
    segments = [(a, min(a + arith_core.DEFAULT_SEGMENT, 2 * X + 1))
                for a in range(X + 1, 2 * X + 1, arith_core.DEFAULT_SEGMENT)]
    return first, offset, segments


def _streamed_windows(values, kind, X, h):
    """(sums, counts, lengths) of kind's windows, (x, x+h] or ((1-h/X)x, x],
    for every integer x in (X, 2X], in order of x, yielded
    arith_core.DEFAULT_SEGMENT windows at a time: a fresh array of window
    sums of f, exact int32 for int8 f, float64 for float f and complex128
    for complex f, and _runs of the segment, counts[j] windows of length
    lengths[j] in turn. values(lo, hi) opens a stream of f over [lo, hi),
    as _value_stream does, and the pass reads it in the pieces of _reads;
    additive windows may be longer than X.

    The whole span is checked against the budget before any work, and so
    bounds an int32 prefix. One prefix of f runs from the first window's
    start across every segment: each segment extends it over its new
    values and keeps a tail of one window length for the next, so each
    window sum is a difference of the values one np.cumsum would give.
    Stops are consecutive integers, so a segment's sums are one slice
    difference per run of one length (_window_sums). Multiplicative passes
    with fewer than _RUN_MIN windows per run (X < _RUN_MIN h) take both
    edges from _edges and gather instead: there, a run costs more Python
    than its windows save. Only the tail and what the caller keeps outlive
    a segment, so memory stays O(segment + h), and a suspended pass holds
    no segment-long array."""
    first, offset, segments = _reads(kind, X, h)
    arith_core._check_span(first, 2 * X + offset + 1)
    take = values(first, 2 * X + offset + 1)
    gather = kind == "multiplicative" and X < _RUN_MIN * h
    if gather:
        spec = WindowSpec(kind, X, h)
    base, tail = first - 1, np.zeros(1)  # the prefix is 0 up to first - 1

    def segment(a, b):
        nonlocal base, tail
        prefix = _running_sums(tail, take(base + len(tail), b + offset))
        counts, lengths = _runs(kind, X, h, a, b)
        if gather:
            starts, stops = _edges(spec, np.arange(a, b, dtype=np.int64))
            sums = prefix[stops - base] - prefix[starts - base]
        else:
            sums = _window_sums(prefix, a + offset - base, counts.tolist(), lengths.tolist())
        last = b - 1 + offset - int(lengths[-1])  # the last window's start
        base, tail = last, prefix[last - base:].copy()
        return sums, counts, lengths
    for a, b in segments:
        yield segment(a, b)


def _shared_windows(values, passes):
    """(i, (sums, counts, lengths)) for every segment of windows of every
    pass i, passes[i] = (kind, X, h), as _streamed_windows(values, kind, X,
    h) yields them, all read from one stream values(lo, hi, budget) over
    the union [lo, hi) of the passes' spans: for lambda and mu, one sieve
    walk serves the whole set.

    Every pass's span is checked against the budget before any work; the
    union, which no array covers, only against the 64-bit invariants. The
    passes advance in order of their next piece's end (for passes with one
    X this is lockstep), so the stream is read in ascending pieces, and
    only the values from the lowest position an unfinished pass can still
    read are kept. Every unfinished pass reads no further than one piece
    past that position, so memory stays O(segment + longest window), never
    O(X), whatever the number of passes; a stretch of the union that no
    pass reads is skipped a segment at a time."""
    reads = []  # (first, ends) of each pass
    for kind, X, h in passes:
        first, offset, segments = _reads(kind, X, h)
        arith_core._check_span(first, 2 * X + offset + 1)
        reads.append((first, [b + offset for _, b in segments]))
    lo, hi = min(first for first, _ in reads), max(ends[-1] for _, ends in reads)
    take = values(lo, hi, budget=math.inf)
    buf, buf_lo, buf_hi = None, lo, lo  # f on [buf_lo, buf_hi)

    def shared(*_):  # the stream of every pass: a view of buf
        return lambda a, b: buf[a - buf_lo:b - buf_lo]
    passes = [_streamed_windows(shared, *p) for p in passes]
    at = [first for first, _ in reads]  # where each pass reads next; inf once done
    queue = [(ends[0], i, 0) for i, (_, ends) in enumerate(reads)]
    heapq.heapify(queue)
    while queue:
        end, i, k = heapq.heappop(queue)
        if end > buf_hi:
            low = min(at)
            while low - buf_hi > arith_core.DEFAULT_SEGMENT:
                take(buf_hi, buf_hi + arith_core.DEFAULT_SEGMENT)
                buf_hi += arith_core.DEFAULT_SEGMENT
            piece = take(buf_hi, end)
            if low < buf_hi:
                piece = np.concatenate((buf[low - buf_lo:], piece))
            buf, buf_lo, buf_hi = piece[len(piece) - (end - low):], low, end
        yield i, next(passes[i])
        ends = reads[i][1]
        if k + 1 < len(ends):
            at[i] = end
            heapq.heappush(queue, (ends[k + 1], i, k + 1))
        else:
            at[i] = math.inf


def _abs_means(sums, counts, lengths):
    """|window mean of f| of one segment of windows, in place in sums when
    they are float64."""
    if sums.dtype == np.int32:
        sums = sums.astype(np.float64)  # exact
    sums /= (float(lengths[0]) if len(lengths) == 1 else
             np.repeat(lengths.astype(np.float64), counts))
    return np.abs(sums, out=sums)


def _abs_window_means(fname, spec):
    """|window mean of f| for every integer x in (X, 2X], in order of x,
    one streamed segment of windows at a time, each a fresh array."""
    if spec.X > WINDOW_BUDGET:
        raise BudgetError("window count %d exceeds budget" % spec.X)
    for segment in _streamed_windows(
            functools.partial(_value_stream, fname), spec.kind, spec.X, spec.h):
        yield _abs_means(*segment)


def _square_sum(sums, bound):
    """The exact sum of the squares of the integer array sums, each at most
    bound in magnitude, as a Python int: int64 sums of at most
    (2^63 - 1) // bound^2 squares each, none of which can overflow."""
    squares = np.multiply(sums, sums, dtype=np.int64)
    step = INT64_MAX // (bound * bound)
    return sum(int(squares[i:i + step].sum()) for i in range(0, len(squares), step))


class _MeanSquare:
    """variance of one spec, taken a segment of its windows at a time:
    add(sums, counts, lengths) for each segment in turn, then value()."""

    def __init__(self, fname, spec):
        self.spec = spec
        self.integer = fname in ("liouville", "mobius")
        if not self.integer:
            self.acc = ExactSum()
        elif spec.kind == "additive":
            self.total = 0
        else:
            self.totals = np.zeros(spec.h, dtype=np.int64)  # T_l at l - h - 1, l = h + 1, ..., 2h

    def add(self, sums, counts, lengths):
        h = self.spec.h
        if not self.integer:
            means = _abs_means(sums, counts, lengths)
            means *= means
            self.acc.add(means)
        elif self.spec.kind == "additive":
            self.total += _square_sum(sums, h)
        else:
            squares = np.multiply(sums, sums, dtype=np.int64)
            k = int(lengths[0]) - (h + 1)
            self.totals[k:k + len(lengths)] += np.add.reduceat(squares, np.cumsum(counts) - counts)

    def value(self):
        X, h = self.spec.X, self.spec.h
        if not self.integer:
            return self.acc.value() / X
        if self.spec.kind == "additive":
            terms = [self.total / (h * h)]
        else:
            terms = np.arange(h + 1, 2 * h + 1, dtype=np.float64)
            np.square(terms, out=terms)  # exact: l^2 <= 2^52
            np.divide(self.totals, terms, out=terms)
        return fsum(terms) / X


def variances(fname, specs, stream=None):
    """[variance(fname, spec) for spec in specs], every pass read from one
    stream of f over the union of the specs' spans (_shared_windows): for
    lambda and mu one sieve walk, not one per spec. Each value is the one
    its own pass gives, since each adds its windows into exact totals.
    Every spec is checked against the budgets before any work. stream,
    when given, opens that stream in place of _value_stream(fname, ...)."""
    for spec in specs:
        if spec.X > WINDOW_BUDGET:
            raise BudgetError("window count %d exceeds budget" % spec.X)
    out = [_MeanSquare(fname, spec) for spec in specs]
    for i, segment in _shared_windows(stream or functools.partial(_value_stream, fname),
                                      [(spec.kind, spec.X, spec.h) for spec in specs]):
        out[i].add(*segment)
    return [acc.value() for acc in out]


def variance(fname, spec):
    """Average of |window mean of f|^2 over integer x in (X, 2X], from one
    streamed pass of the window kernel: variances of the one spec.

    For lambda and mu every window sum S is an integer with |S| <= l, its
    window length, and the squares of each run of one length l add up
    exactly to an integer T_l; the variance is fsum(T_l / l^2) / X, one
    rounding per run. The additive pass is one run, l = h, summed by
    _square_sum into a Python int. A multiplicative run holds at most
    X/h + 1 windows of length l <= 2h, and the span check gives
    X + h < 2^26 and h < 2^25, so T_l <= 4h(X + h) < 2^53: the run totals
    and every partial sum of them fit int64, and T_l / l^2 is one correctly
    rounded double division.

    For float f the squared means of every segment go into one exact
    accumulator."""
    return variances(fname, [spec])[0]


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
    from one streamed pass of the window kernel over a complex prefix, the
    |sums| of every segment added into one exact accumulator. The twisted
    values of every piece are written into one buffer of n and one of
    lambda(n) e(alpha n) per pass, as log_chowla_sum's terms are: fresh
    arrays per piece cost a page fault per 4 KiB."""
    X, h, alpha = int(X), int(h), float(alpha)
    twist = 2j * np.pi * alpha

    def twisted(lo, hi):
        lam = arith_core._stream(lo, hi)
        # the longest piece of the pass is its first: a segment of windows
        # and one window length
        size = min(arith_core.DEFAULT_SEGMENT + h, hi - lo)
        offsets = np.arange(size, dtype=np.float64)
        ns = np.empty_like(offsets)
        terms = np.empty(size, dtype=np.complex128)

        def values(a, b):  # each piece is overwritten by the next
            n = np.add(offsets[:b - a], a, out=ns[:b - a])  # exact: n < 2^53
            c = np.multiply(twist, n, out=terms[:b - a])
            np.exp(c, out=c)
            return np.multiply(lam(a, b), c, out=c)
        return values
    acc = ExactSum()
    for sums, _, _ in _streamed_windows(twisted, "additive", X, h):
        acc.add(np.abs(sums))
    return acc.value() / (h * X)


@dataclass
class ParsevalReport:
    lhs: float
    integral: float
    rhs: float
    envelope: float
    T: float
    quadrature_bound: float


def parseval_link(X, h, delta):
    """Window variance against the vertical second moment it embeds into.

    lhs is the multiplicative variance of Liouville at (X, h). rhs is
    int_{|t| <= X/(h delta^2)} |Z(1+it)|^2 dt + delta with Z the
    (X, 2X]-restricted series, twice the half-line integral of
    _square_integral (the integrand is even in t), whose step follows from
    the frequency spread log(2X/(X+1)); quadrature_bound certifies the
    integral's error. Envelope lhs <= 50 rhs. A grid of more than
    arith_core.SPAN_BUDGET nodes raises BudgetError, and one of fewer than
    2 nodes (T = 0 once h delta^2 overflows) PreconditionError, before any
    sieve runs. The coefficients lambda(n)/n are kept from the variance
    pass's one sieve walk, which reads all of (X, 2X].
    """
    X, h = int(X), int(h)
    if not delta > 0:
        raise ValueError("delta must be positive")
    scale = h * delta * delta
    T = X / scale if scale > 0 else math.inf
    nodes = _em_intervals(T, math.log(2 * X / (X + 1))) + 1
    if nodes > arith_core.SPAN_BUDGET:
        raise BudgetError("%g t-nodes exceed budget %d" % (nodes, arith_core.SPAN_BUDGET))
    if nodes < 2:
        raise PreconditionError("T = X/(h delta^2) = %g gives %d t-nodes; need at least 2"
                                % (T, nodes))
    lam = np.empty(X, dtype=np.int8)  # lambda(n) at index n - X - 1

    def kept(lo, hi, budget):
        take = _value_stream("liouville", lo, hi, budget)

        def values(a, b):
            piece = take(a, b)
            s, e = max(a, X + 1), min(b, 2 * X + 1)
            lam[s - X - 1:e - X - 1] = piece[s - a:e - a]
            return piece
        return values
    lhs, = variances("liouville", [WindowSpec("multiplicative", X, h)], kept)
    n = np.arange(X + 1, 2 * X + 1, dtype=np.float64)
    half, err = _square_integral(-np.log(n), lam / n, [(0.0, T)])
    integral = 2.0 * half  # symmetric in t; doubling is exact
    rhs = integral + delta
    return ParsevalReport(lhs, integral, rhs, 50.0 * rhs, T, 2.0 * err)


def additive_from_multiplicative_check(X, h):
    """Additive variance against the multiplicative-variance envelope
    40 (delta + max multiplicative variance / delta), delta = h^{-1/2},
    maximum over a geometric grid of X' in [X, 3X]. The additive pass and
    the whole X' ladder read lambda from one sieve walk (variances)."""
    X, h = int(X), int(h)
    delta = 1.0 / math.sqrt(h)
    specs = [WindowSpec("additive", X, h)]
    Xp = float(X)
    while Xp <= 3 * X:
        specs.append(WindowSpec("multiplicative", int(Xp), h))
        Xp *= 1.0 + delta
    lhs, *ladder = variances("liouville", specs)
    bound = 40.0 * (delta + max(ladder) / delta)
    return lhs, bound
