"""Finite Dirichlet polynomials: evaluation, the t-grid rules of every
frequency-side quadrature and grid cover, mean values over t-ranges,
integrals over sparse t-sets, powers of prime-supported polynomials, and
grid measures of large-value sets.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import arith_core
from .util import check_mul64, fsum

MAX_POWER = 12


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


def prime_band_coeffs(Q, delta, weight="reciprocal", sign="liouville"):
    """Coefficients supported on primes p in (Q, (1+delta)Q].

    weight 'reciprocal' stores sign(p)/p (vertical-line values folded in),
    'unit' stores sign(p). sign 'liouville' gives -1 at primes, 'plus' +1.
    """
    lo = int(math.floor(Q))
    hi = int(math.floor((1.0 + delta) * Q))
    plist = arith_core.primes_in(Q, (1.0 + delta) * Q)
    # a band holding no integer still yields a valid all-zero sequence
    hi = max(hi, lo + 1)
    vals = np.zeros(hi - lo, dtype=np.complex128)
    s = -1.0 if sign == "liouville" else 1.0
    for p in plist:
        a = s / p if weight == "reciprocal" else s
        vals[int(p) - lo - 1] = a
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


def _phase_sum(logn, vals, ts):
    """Vector of sum_n vals_n e^{i t logn_n} on a t-array.

    Zero coefficients are dropped first. On an evenly spaced grid
    t_k = t0 + k dt (to a few ulps of max|t|) the phases factor as
    e^{i t_{gB} logn} e^{i j dt logn} with k = gB + j and B = isqrt(len(ts)):
    G = ceil(len(ts) / B) giant rows at the grid nodes ts[::B] carry vals,
    B baby rows carry the offsets j dt, and one complex matrix product
    joins them, so about (G + B) exponentials per term replace one per
    node. Any other grid takes B = 1, the direct sum. Terms go in slabs
    with (G + B) * slab <= 2^22 elements, summed into one output.
    """
    keep = vals != 0
    logn, vals = logn[keep], vals[keep]
    K = len(ts)
    B, dt = max(1, math.isqrt(K)), 0.0
    if B > 1:
        dt = (ts[-1] - ts[0]) / (K - 1)
        drift = np.max(np.abs(ts - (ts[0] + np.arange(K) * dt)))
        if not drift <= 4 * np.finfo(np.float64).eps * np.max(np.abs(ts)):
            B, dt = 1, 0.0
    G = -(-K // B)
    out = np.zeros((G, B), dtype=np.complex128)
    offsets = np.arange(B) * dt
    slab = max(1, (1 << 22) // (G + B))
    for a in range(0, len(vals), slab):
        lg = logn[a:a + slab]
        giant = np.exp(1j * np.multiply.outer(ts[::B], lg))
        giant *= vals[a:a + slab]
        out += giant @ np.exp(1j * np.multiply.outer(offsets, lg)).T
    return out.reshape(-1)[:K]


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
    """Trapezoid sum of equally spaced samples, real or complex."""
    w = np.ones(len(vals))
    w[0] = w[-1] = 0.5
    return np.dot(w, vals).item() * dt


def _trap_pair(vals, dt):
    """(fine, coarse): trapezoid sums of all samples at dt, alternate at 2 dt."""
    return _trap(vals, dt), _trap(vals[::2], 2 * dt)


def _square_integral(logn, vals, intervals, step):
    """(fine, halving_delta) for the integral of |sum vals_n e^{i t logn_n}|^2
    over a union of t-intervals, each on _grid(a, b, step). The fine and
    coarse sums add up across intervals, and halving_delta is
    |fine - coarse| / |fine| (|fine| at least 1e-300)."""
    fine = coarse = 0.0
    for a, b in intervals:
        ts = _grid(a, b, step)
        f, c = _trap_pair(np.abs(_phase_sum(logn, vals, ts)) ** 2, ts[1] - ts[0])
        fine += f
        coarse += c
    return fine, abs(fine - coarse) / max(abs(fine), 1e-300)


def _cell_hits(exceed):
    """Cells of a cover: a cell joins when an endpoint or its midpoint exceeds."""
    return exceed[0:-2:2] | exceed[1::2] | exceed[2::2]


@dataclass
class MeanValueResult:
    value: float
    ratio: float
    halving_delta: float
    sum_sq: float


def mean_value_integral(coeffs, T):
    """integral_0^T |sum a_n n^{it}|^2 dt by trapezoid quadrature.

    The fine grid runs at half the step limit pi/(4 log support_hi); the
    coarse pass reuses alternate nodes, and halving_delta reports their
    relative difference for the caller to judge. Returns the value and the
    ratio (value - T sum|a|^2) / (N sum|a|^2).
    """
    T = float(T)
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    fine, halving = _square_integral(np.log(coeffs.n_array), coeffs.values, [(0.0, T)],
                                     _step_limit(coeffs.support_hi))
    ssq = coeffs.sum_sq
    N = coeffs.support_hi
    ratio = (fine - T * ssq) / (N * ssq) if ssq > 0 else 0.0
    return MeanValueResult(fine, ratio, halving, ssq)


@dataclass
class HalaszResult:
    value: float
    bound: float
    measure: float
    halving_delta: float


def halasz_subset_integral(coeffs, subset):
    """integral of |sum a_n n^{it}|^2 over a union of t-intervals.

    Reports the sparse-set envelope
    10 (N + measure * sqrt(T) log T) * sum|a|^2 with T = subset.limit, and
    the relative fine-minus-coarse difference as halving_delta.
    """
    value, halving = _square_integral(np.log(coeffs.n_array), coeffs.values, subset.intervals,
                                      _step_limit(coeffs.support_hi))
    T = subset.limit
    ssq = coeffs.sum_sq
    bound = 10.0 * (coeffs.support_hi + subset.measure * math.sqrt(T) * math.log(max(T, 2.0))) * ssq
    return HalaszResult(value, bound, subset.measure, halving)


def raise_power(coeffs, ell):
    """ell-fold Dirichlet self-convolution of a prime-supported sequence.

    Support lands in (lo^ell, hi^ell]; coefficient magnitudes stay below
    ell! when the base values are bounded by 1. Hard 64-bit support check.
    """
    if not 1 <= ell <= MAX_POWER:
        raise ValueError("ell must lie in 1..%d" % MAX_POWER)
    check_mul64(*([coeffs.support_hi] * ell))
    base = {}
    for i, a in enumerate(coeffs.values):
        if a != 0:
            base[coeffs.support_lo + 1 + i] = complex(a)
    acc = {1: 1.0 + 0j}
    for _ in range(ell):
        nxt = {}
        for n, an in acc.items():
            for p, ap in base.items():
                key = n * p
                nxt[key] = nxt.get(key, 0j) + an * ap
        acc = nxt
    lo = coeffs.support_lo**ell
    hi = coeffs.support_hi**ell
    vals = np.zeros(hi - lo, dtype=np.complex128)
    for n, a in acc.items():
        vals[n - lo - 1] = a
    return CoeffSeq(lo, hi, vals)


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
