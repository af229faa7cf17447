"""Finite Dirichlet polynomials: evaluation, the t-grid rules of every
frequency-side quadrature and grid cover, mean values over t-ranges,
integrals over sparse t-sets, and grid measures of large-value sets.

Square integrals (mean values, Halasz subsets, the Parseval bridge) come
from _square_integral: the trapezoid rule with _EM_ORDER Euler-Maclaurin
endpoint corrections, on the step at which the remainder bound is
_QUAD_TOL of the trivial bound (b - a)(sum|v|)^2, so the node count
follows the frequency spread sigma alone: ceil((b - a) sigma/_EM_REACH)
+ 1 per interval. Each returns a certified bound on its error, rounding
included, which the CLI prints over |value| as a quadrature-bound row.
Every trapezoid sum is exactly rounded (util.fsum), not a BLAS dot
product, whose bits moved with the BLAS thread count.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith_core
from .util import fsum


@dataclass
class CoeffSeq:
    """Coefficients a_n for n in (support_lo, support_hi], dense storage."""

    support_lo: int
    support_hi: int
    values: np.ndarray

    def __post_init__(self):
        if not 0 <= self.support_lo < self.support_hi:
            raise ValueError("need 0 <= support_lo < support_hi")
        self.values = np.asarray(self.values, dtype=np.complex128)
        if len(self.values) != self.support_hi - self.support_lo:
            raise ValueError("values length must match the support")

    @property
    def n_array(self):
        return np.arange(self.support_lo + 1, self.support_hi + 1, dtype=np.float64)

    @property
    def sum_sq(self):
        return fsum(np.abs(self.values) ** 2)


def coeffs_from_dict(mapping):
    lo = min(mapping) - 1
    hi = max(mapping)
    vals = np.zeros(hi - lo, dtype=np.complex128)
    for n, a in mapping.items():
        vals[n - lo - 1] = a
    return CoeffSeq(lo, hi, vals)


def prime_band_coeffs(Q, delta):
    """Coefficients -1/p on the primes p in (Q, (1+delta)Q]: lambda(p) = -1
    with the vertical-line value 1/p folded in."""
    lo = int(math.floor(Q))
    hi = int(math.floor((1.0 + delta) * Q))
    plist = arith_core.primes_in(Q, (1.0 + delta) * Q)
    # a band holding no integer still yields a valid all-zero sequence
    hi = max(hi, lo + 1)
    vals = np.zeros(hi - lo, dtype=np.complex128)
    for p in plist:
        vals[int(p) - lo - 1] = -1.0 / p
    return CoeffSeq(lo, hi, vals)


@dataclass
class TSubset:
    """Disjoint ascending intervals inside [0, limit]."""

    intervals: list
    limit: float

    def __post_init__(self):
        prev = 0.0
        for a, b in self.intervals:
            if a < prev - 1e-12 or b <= a or b > self.limit + 1e-12:
                raise ValueError("intervals must be disjoint, ascending, in range")
            prev = b

    @property
    def measure(self):
        return math.fsum(b - a for a, b in self.intervals)


_EPS = np.finfo(np.float64).eps
# _bsgs_sum's complex matrix product sums over the terms of a slab, and
# OpenBLAS (0.3.31, Haswell kernels, measured at every 37th count from 250
# to 2063) gave the same bits at 1 and 2 threads only where that count is
# 0 or 7 mod 8: its one- and many-threaded drivers can cut the sum into
# different blocks. So every slab but the last holds a multiple of
# _TERMS_ALIGN terms, and the contour's zeta grids (zeta_mellin) take a
# multiple of it in all, lest tnp's contour rows move with
# OPENBLAS_NUM_THREADS
_TERMS_ALIGN = 8
# nonzero terms per doubling of M above 2^10, and per halving below 2^11,
# from which an even grid takes the Taylor-FFT kernel; the measured rule
# is in _phase_sum
_FFT_TERMS = 900


def _fft_size(K):
    """The least power of 2 that is at least 2K."""
    return 1 << (2 * K - 1).bit_length()


def _phase_sum(logn, vals, ts):
    """Vector of sum_n vals_n e^{i t logn_n} on a t-array.

    Zero coefficients are dropped first. A grid is even when
    t_k = t0 + k dt, dt = (t_last - t0)/(K - 1), to within 4 eps max|t|. An
    even grid of K nodes with N nonzero terms takes _taylor_fft_sum, which
    costs O(J (N + M log M)) for M = _fft_size(K) and a Taylor order J <= 16,
    when N >= _FFT_TERMS max(2, log2 M - 10, 2^(11 - log2 M)); every other
    grid takes _bsgs_sum, O(N K). As both K and M log M grow with M, the
    break-even is a number of terms that grows with M above 2^11; below, a
    few nodes cost _bsgs_sum so little that it grows again as M falls. On a
    2-vCPU AMD EPYC (numpy 2.4, K from M/4 to M/2, over repeated sweeps) it
    was over 1.1e5 terms at M = 2^6 and 2^7, 6100-43000 at 2^8, 4900-12400
    at 2^9, 1870-3400 at 2^10, 1270-3400 at 2^11, 2400-2900 at 2^12,
    3500-3600 at 2^13, 4200-5000 at 2^14, 4500-7100 at 2^15, 6100-8000 at
    2^16 and 7700-10700 at 2^17 and 2^18; the spread is mostly the second
    core, which only _bsgs_sum's matrix product uses. The rule lies within
    or below each range.
    """
    keep = vals != 0
    logn, vals = logn[keep], vals[keep]
    K = len(ts)
    dt = 0.0
    if K > 1:
        dt = (ts[-1] - ts[0]) / (K - 1)
        drift = np.max(np.abs(ts - (ts[0] + np.arange(K) * dt)))
        if not drift <= 4 * _EPS * np.max(np.abs(ts)):
            dt = 0.0
    m = _fft_size(K).bit_length() - 1  # log2 M
    if dt and len(vals) >= _FFT_TERMS * max(2, m - 10, 1 << max(11 - m, 0)):
        return _taylor_fft_sum(logn, vals, ts, dt)
    return _bsgs_sum(logn, vals, ts, dt)


def _bsgs_sum(logn, vals, ts, dt):
    """_phase_sum by baby steps and giant steps; dt = 0 marks an uneven grid.

    On an even grid of step dt the phases factor as
    e^{i (t0 + g B dt) y} e^{i j dt y} with y = logn, k = gB + j and
    B = isqrt(len(ts)): G = ceil(len(ts) / B) giant rows carry vals, B baby
    rows carry the offsets j dt, and one complex matrix product joins them.
    Each set of rows is built by doubling, rows[h:2h] = rows[:h] e^{i h s y}
    for h = 1, 2, 4, ..., with s = dt from baby row 0 = 1 and s = B dt from
    giant row 0 = e^{i t0 y} vals, so row r is row 0 times one factor per
    bit of r. The ceil(log2 B) + ceil(log2 G) + 1 = L exponentials per term
    are one np.exp per slab. An uneven grid takes the direct sum, one
    exponential per node. Terms go in slabs of the largest multiple of
    _TERMS_ALIGN with (G + B) * slab <= 2^22 elements, and at least
    _TERMS_ALIGN, summed into one output: only the last slab can hold a
    count of terms that is not a multiple.

    Rounding. A baby factor's phase (h dt) y rounds once (h is a power of
    2), a giant factor's (h (B dt)) y twice and t0 y once, so the phases
    of node k sum to within eps (|t0| + |k dt|) |y| of (t0 + k dt) y. Each
    exponential is within eps of its point on the unit circle, and each of
    the L + 1 complex products adds at most sqrt(5) eps/2, so the entry of
    node k is within eps ((|t0| + |k dt|) |y| + 2.2 (L + 1)) |v| of
    v e^{i (t0 + k dt) y}. One exponential per node is within
    eps (|t_k y|/2 + 2.2) |v| of v e^{i t_k y}, a linspace node t_k is
    within eps (|k dt| + |t_k|)/2 of t0 + k dt, and the sums over n round
    alike in both. On a grid that does not cross t = 0, as every grid the
    library builds, |t0| + |k dt| = |t_k| and |k dt| <= max|t|, so the
    kernel is within eps (5 max|t| max|y|/2 + 2.2 (L + 2)) sum|v| of the
    direct sum: inside 4 eps (1 + max|t| max|y|) sum|v| once
    max|t| max|y| >= 1.5 L + 1.
    """
    K = len(ts)
    B = max(1, math.isqrt(K)) if dt else 1
    G = -(-K // B)
    out = np.zeros((G, B), dtype=np.complex128)
    nb, ng = (B - 1).bit_length(), (G - 1).bit_length()
    # phase steps of the baby factors, the giant factors and giant row 0
    steps = np.concatenate(((1 << np.arange(nb)) * dt, (1 << np.arange(ng)) * (B * dt), ts[:1]))
    slab = max(1, (1 << 22) // (G + B) // _TERMS_ALIGN) * _TERMS_ALIGN
    for a in range(0, len(vals), slab):
        lg, v = logn[a:a + slab], vals[a:a + slab]
        if not dt:
            out[:, 0] += np.exp(1j * np.multiply.outer(ts, lg)) @ v
            continue
        f = np.exp(1j * np.multiply.outer(steps, lg))
        giant = _doubling_rows(G, f[nb:-1], f[-1] * v)
        out += giant @ _doubling_rows(B, f[:nb], 1.0).T
    return out.reshape(-1)[:K]


def _doubling_rows(n, factors, row0):
    """The n rows row0 prod_{bits 2^i of r} factors[i], r < n: rows[h:2h] =
    rows[:h] factors[log2 h] for h = 1, 2, 4, ..."""
    rows = np.empty((n, factors.shape[1]), dtype=np.complex128)
    rows[0] = row0
    for i, f in enumerate(factors):
        h = 1 << i
        np.multiply(rows[:min(h, n - h)], f, out=rows[h:2 * h])
    return rows


def _taylor_fft_sum(logn, vals, ts, dt):
    """_phase_sum on an even grid of K >= 2 nodes and step dt by Taylor
    expansion about uniform frequencies (Anderson-Dahleh).

    Centre the nodes at t_c = ts[c], c = (K - 1) // 2: t_k = t_c + kappa dt
    with integer |kappa| <= K/2. Take M = _fft_size(K) >= 2K and put each
    frequency y = logn on the bins of width 2 pi/(M dt): with
    phi = y M dt/(2 pi), b = round(phi) and u = 2 (phi - b) in [-1, 1],
        kappa dt y = 2 pi kappa b/M + z u,    z = pi kappa/M,
    and |z| <= r = pi K/(2M) <= pi/4. Expanding e^{i z u} to degree J,
        sum_n v_n e^{i t_k y_n}
            = sum_{j<=J} (i z)^j/j! F_j(kappa) + E,
        F_j(kappa) = sum_n v_n e^{i t_c y_n} u_n^j e^{2 pi i kappa b_n/M},
    where F_j is one inverse FFT of the bincount of v e^{i t_c y} u^j into
    the bins b mod M, read at kappa mod M: exact aliasing, since kappa is an
    integer, and no two nodes share an index, since K <= M. As |u| <= 1,
        |E| <= sum|v| sum_{j>J} r^j/j! <= sum|v| r^{J+1}/(J+1)! e^r,
    the tail sum_{i>=0} r^{J+1+i}/(J+1+i)! being at most r^{J+1}/(J+1)!
    times sum_i r^i/i!. J is the least order with r^{J+1}/(J+1)! e^r <= eps
    (J <= 16 at r <= pi/4). The powers (i z)^j/j! and u^j are kept as one
    running product each, so memory stays O(N + M + K). Rounding enters
    where the direct sum's does, in the phases t_c y and kappa dt y, each
    at most max|t| max|y| in size.
    """
    K = len(ts)
    M = _fft_size(K)
    c = (K - 1) // 2
    phi = logn * (M * dt / (2.0 * math.pi))
    bins = np.rint(phi)
    u = 2.0 * (phi - bins)
    bins = bins.astype(np.int64) & (M - 1)
    w = vals * np.exp(1j * ts[c] * logn)
    re, im = w.real.copy(), w.imag.copy()
    kappa = np.arange(-c, K - c)
    r = math.pi * K / (2 * M)
    J, tail = 0, r * math.exp(r)
    while tail > _EPS:
        J += 1
        tail *= r / (J + 1)
    iz, at = 1j * (math.pi / M) * kappa, kappa & (M - 1)
    power = np.ones(K, dtype=np.complex128)  # (i z)^j / j!
    out = np.zeros(K, dtype=np.complex128)
    for j in range(J + 1):
        spectrum = np.bincount(bins, re, M) + 1j * np.bincount(bins, im, M)
        out += power * np.fft.ifft(spectrum, norm="forward")[at]
        power *= iz / (j + 1)
        re *= u
        im *= u
    return out


def _step_limit(N):
    """The t-step pi/(4 log max(N, 3)) for a polynomial over n <= N."""
    return math.pi / (4.0 * math.log(max(N, 3)))


def _nodes(a, b, step):
    """Node count 2 ceil((b - a)/step) + 1 of the fine grid on [a, b]: its
    step is at most step/2, and alternate nodes form the coarse grid."""
    return 2 * int(math.ceil((b - a) / step)) + 1


def _grid(a, b, step):
    return np.linspace(a, b, _nodes(a, b, step))


def _trap(vals, dt):
    """Trapezoid sum of equally spaced real samples: the exactly rounded sum
    (util.fsum) of the samples with the two ends weighted 1/2, exact, times
    dt. No BLAS reduction is involved, so the bits do not depend on the
    thread count."""
    w = np.array(vals, dtype=np.float64)
    w[[0, -1]] *= 0.5
    return fsum(w) * dt


def _bernoulli_over_factorial(K):
    """[B_2/2!, B_4/4!, ..., B_2K/(2K)!], each exact then rounded once."""
    B = [Fraction(1)]
    for m in range(1, 2 * K + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return [float(B[2 * k] / math.factorial(2 * k)) for k in range(1, K + 1)]


# Every square integral is certified by Euler-Maclaurin at order _EM_ORDER
# (K endpoint corrections, through f^(2K-1)) on the step at which the
# remainder bound is _QUAD_TOL (b - a)(sum|v|)^2: that fraction of the
# trivial bound on the integral
_EM_ORDER = 8
_QUAD_TOL = 1e-9
_EM_COEFFS = _bernoulli_over_factorial(_EM_ORDER)
# h sigma at which |B_2K|/(2K)! (h sigma)^2K = _QUAD_TOL, about 1.648
_EM_REACH = (_QUAD_TOL / abs(_EM_COEFFS[-1])) ** (1.0 / (2 * _EM_ORDER))


def _em_intervals(length, sigma):
    """Trapezoid intervals, ceil(length sigma/_EM_REACH) and at least 1, on
    a t-interval of the given length for frequencies of spread sigma: the
    step is then at most _EM_REACH/sigma. A float, inf when it overflows."""
    if not length > 0:
        return 0.0
    q = length * sigma / _EM_REACH
    return max(1.0, float(math.ceil(q))) if q < math.inf else math.inf


def _square_integral(logn, vals, intervals):
    """(value, bound): the integral of f = |F|^2, F(t) = sum_n v_n e^{i t y_n}
    with v = vals and y = logn, over a union of t-intervals, and a bound on
    its error for the exact frequencies that logn rounds to within an ulp
    each (np.log does).

    Zero coefficients are dropped and the frequencies centred on
    (min y + max y)/2, which leaves |F|^2 as it is and keeps |y| <= sigma/2,
    sigma = max y - min y: the derivative sums below then hold no cancelling
    terms of size (max|y|)^i. f = sum_{m,n} v_m conj(v_n) e^{i t (y_m - y_n)}
    has every derivative |f^(j)| <= sigma^j (sum|v|)^2. On [a, b], with
    _em_intervals(b - a, sigma) intervals of step h (np.linspace nodes),
    Euler-Maclaurin (DLMF 2.10.1) gives
        int_a^b f = T_h - sum_{k<=K} B_2k/(2k)! h^2k (f^(2k-1)(b) - f^(2k-1)(a)) + R,
        |R| <= |B_2K|/(2K)! h^2K (b - a) sigma^2K (sum|v|)^2
             = 2 zeta(2K) (h/2 pi)^2K (b - a) sigma^2K (sum|v|)^2,
    as |B~_2K(x)| <= |B_2K| on the periodic Bernoulli function, with T_h the
    trapezoid sum (_trap) of |F|^2 on the nodes, from _phase_sum. The odd
    derivatives are f^(m) = 2 Re sum_{i < m/2} C(m, i) F^(i) conj(F^(m-i)),
    F^(i)(t) = sum_n v_n (i y_n)^i e^{i t y_n}, 2K short sums per endpoint
    (_endpoint_derivatives). K = _EM_ORDER, and the step makes |R| at most
    _QUAD_TOL (b - a)(sum|v|)^2 (Trefethen and Weideman, SIAM Review 56,
    2014: the trapezoid rule on the band-limited f needs only its endpoint
    terms).

    Rounding, with S = sum|v|, tm = max|t| over the intervals, Y = sigma/2,
    Yin = max|logn|, n terms and e = eps:
    - each sample F(t_k) is within D = e S (tm (4 Y + Yin) + 2.2 (log2 K +
      5) + n + 9 log2(M) sqrt(M)) of its value at the exact node a + k h,
      K nodes, M = _fft_size(K): the kernel's phases and linspace's nodes
      (5/2 e tm Y by _bsgs_sum's rounding, the step's own rounding e tm Y/2,
      and the Taylor-FFT kernel's phases round alike), the centring's eps/2
      and the input's ulp (e tm (Y/2 + Yin)), exponentials and products
      2.2 (L + 2) e S with L <= log2 K + 3, the sums over n in any order
      (n e S; bincounts and one matrix product are such sums), and the
      inverse FFTs, each within 4 log2(M) e sqrt(M) S of its exact value
      (Higham, Accuracy and Stability, 2002, Thm 24.2) and weighted by
      r^j/j!, which sum to e^r <= 2.2;
    - each |F|^2 sample is then within 2 S D + D^2 + 2.5 e (S + D)^2, and
      the trapezoid weights sum to b - a; fsum, the rounded step and the
      product with it add 1.5 e |T_h|;
    - F^(i) at an endpoint is within e S Y^i (n + i + 4 + tm (Y + Yin)) +
      e S i Y^(i-1) (Y + Yin) (exponentials, i products by y, the sum over
      n, and the frequencies' rounding), so, as sum_i C(m, i) Y^i Y^(m-i)
      = sigma^m, f^(m) is within e S^2 sigma^(m-1) (4 g_m + (m + 3) sigma)
      with g_m = Y (n + m + 4 + tm (Y + Yin)) + m (Y + Yin); each
      correction rounds by (2k + 2) e relative, and the terms of an
      interval and the intervals are added by fsum.
    sigma, sum|v| and the bound are evaluated in floating point; the bound
    is raised by 1e-12 relative to cover their roundings, each a few eps.
    """
    keep = vals != 0
    y, v = logn[keep], vals[keep]
    if not len(v) or not intervals:
        return 0.0, 0.0
    y_in = float(np.max(np.abs(y)))
    y = y - 0.5 * (float(np.max(y)) + float(np.min(y)))
    sigma = float(np.max(y) - np.min(y))
    Y = float(np.max(np.abs(y)))
    S = fsum(np.abs(v))
    n, e, K = len(v), float(_EPS), _EM_ORDER
    tm = max(max(abs(a), abs(b)) for a, b in intervals)
    derivs = _odd_derivatives(_endpoint_derivatives(y, v, [t for ab in intervals for t in ab]))
    sig = sigma + 4 * e * (Y + y_in)  # the spread of the exact frequencies
    values, bound = [], 0.0
    for j, (a, b) in enumerate(intervals):
        nodes = int(_em_intervals(b - a, sigma)) + 1
        ts = np.linspace(a, b, nodes)
        h = (b - a) / (nodes - 1)
        M = _fft_size(nodes)
        D = e * S * (tm * (4 * Y + y_in) + 2.2 * (math.log2(nodes) + 5) + n
                     + 9 * math.log2(M) * math.sqrt(M))
        trap = _trap(np.abs(_phase_sum(y, v, ts)) ** 2, h)
        terms = [trap]
        bound += (b - a) * (2 * S * D + D * D + 2.5 * e * (S + D) ** 2) + 1.5 * e * abs(trap)
        if sigma > 0:
            bound += abs(_EM_COEFFS[-1]) * (h * sig) ** (2 * K) * (b - a) * S * S
        hk = 1.0
        for k in range(1, K + 1):
            hk *= h * h
            m = 2 * k - 1
            fa, fb = derivs[2 * j, k - 1], derivs[2 * j + 1, k - 1]
            c = _EM_COEFFS[k - 1] * hk
            terms.append(-c * (fb - fa))
            g = Y * (n + m + 4 + tm * (Y + y_in)) + m * (Y + y_in)
            err = e * S * S * sig ** (m - 1) * (4 * g + (m + 3) * sig)
            bound += abs(c) * (2 * err + (2 * k + 2) * e * (abs(fa) + abs(fb)))
        values.append(math.fsum(terms))
    value = math.fsum(values)
    bound += e * (abs(value) + math.fsum(abs(x) for x in values))
    return value, bound * (1.0 + 1e-12)


def _endpoint_derivatives(y, v, ends):
    """(len(ends), 2 _EM_ORDER) array of F^(i)(t) = sum_n v_n (i y_n)^i
    e^{i t y_n} for each t in ends and i < 2 _EM_ORDER: the terms take one
    more real factor y per order, each sum over n is np.sum along a row
    (pairwise, no BLAS), and the sums are turned by i^i, exactly."""
    w = v * np.exp(1j * np.multiply.outer(np.asarray(ends, dtype=np.float64), y))
    out = np.empty((len(ends), 2 * _EM_ORDER), dtype=np.complex128)
    for i in range(2 * _EM_ORDER):
        out[:, i] = w.sum(axis=1)
        w *= y
    return out * np.array([1, 1j, -1, -1j])[np.arange(2 * _EM_ORDER) % 4]


# f^(m) = 2 Re sum_{i < m/2} C(m, i) F^(i) conj(F^(m-i)) for m = 2k - 1,
# k = 1..K: the pairs (i, m - i) of every m in turn, and where each m starts
_EM_PAIRS = np.array([(i, 2 * k - 1 - i, math.comb(2 * k - 1, i))
                      for k in range(1, _EM_ORDER + 1) for i in range(k)])
_EM_STARTS = np.array([k * (k - 1) // 2 for k in range(1, _EM_ORDER + 1)])


def _odd_derivatives(F):
    """(rows, _EM_ORDER) array of f^(2k-1), f = |F|^2, from the rows of
    _endpoint_derivatives (_EM_PAIRS)."""
    i, j, c = _EM_PAIRS.T
    terms = c * F[:, i] * np.conj(F[:, j])
    return 2.0 * np.add.reduceat(terms, _EM_STARTS, axis=1).real


def _cell_hits(exceed):
    """Cells of a cover: a cell joins when an endpoint or its midpoint exceeds."""
    return exceed[0:-2:2] | exceed[1::2] | exceed[2::2]


@dataclass
class MeanValueResult:
    value: float
    ratio: float
    quadrature_bound: float
    sum_sq: float


def mean_value_integral(coeffs, T):
    """integral_0^T |sum a_n n^{it}|^2 dt by _square_integral, the
    endpoint-corrected trapezoid rule, with quadrature_bound certifying its
    error. Returns the value and the ratio
    (value - T sum|a|^2) / (N sum|a|^2).
    """
    T = float(T)
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    value, err = _square_integral(np.log(coeffs.n_array), coeffs.values, [(0.0, T)])
    ssq = coeffs.sum_sq
    N = coeffs.support_hi
    ratio = (value - T * ssq) / (N * ssq) if ssq > 0 else 0.0
    return MeanValueResult(value, ratio, err, ssq)


@dataclass
class HalaszResult:
    value: float
    bound: float
    measure: float
    quadrature_bound: float


def halasz_subset_integral(coeffs, subset):
    """integral of |sum a_n n^{it}|^2 over a union of t-intervals.

    Reports the sparse-set envelope
    10 (N + measure * sqrt(T) log T) * sum|a|^2 with T = subset.limit, and
    the certified error of the value (_square_integral) as
    quadrature_bound.
    """
    value, err = _square_integral(np.log(coeffs.n_array), coeffs.values, subset.intervals)
    T = subset.limit
    ssq = coeffs.sum_sq
    bound = 10.0 * (coeffs.support_hi + subset.measure * math.sqrt(T) * math.log(max(T, 2.0))) * ssq
    return HalaszResult(value, bound, subset.measure, err)


@dataclass
class LargeValueReport:
    measure: float
    threshold: float
    bound: float
    cells: int


def large_value_measure(coeffs, T, gamma):
    """Grid measure of {t in [0,T] : |sum a_n n^{it}| > Q^{-gamma}}.

    Q is the support floor. A cell joins the set when the polynomial
    exceeds the threshold at its midpoint or either endpoint, which makes
    the reported measure an over-cover of the sampled set. Envelope
    50 T^{4/9}.
    """
    Q = coeffs.support_lo
    if Q < 2:
        raise ValueError("prime-band support must start above 1")
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    threshold = Q ** (-gamma)
    ts = _grid(0.0, T, _step_limit(coeffs.support_hi))  # endpoints and midpoints
    mod = np.abs(_phase_sum(np.log(coeffs.n_array), coeffs.values, ts))
    hits = int(np.count_nonzero(_cell_hits(mod > threshold)))
    return LargeValueReport(hits * (T / (len(ts) // 2)), threshold, 50.0 * T ** (4.0 / 9.0), hits)
