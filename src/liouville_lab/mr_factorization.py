"""A two-factor weight on (X, 2(1+delta)X] built from prime bands.

Each n = p m with p prime contributes the dQ/Q measure of the Q-window in
[P0, Q0] where p sits in (Q, (1+delta)Q], m sits in (X/Q, 2X/Q], and m has
no prime factor in [P0, (1+delta)Q). Normalized by log(1+delta) the weight
stays in [0, 1], agrees with the indicator of (X, 2X] off a thin error set,
and turns vertical-line sums over (X, 2X] into an integral of products of
two shorter polynomials, exactly up to the error-set term.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith_core
from .util import fsum, fsum_complex


@dataclass
class RamareWeight:
    """Parameters of the weight; arrays over its domain are cached."""

    X: int
    delta: float
    P0: int
    Q0: int
    _u: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (2 <= self.P0 < self.Q0):
            raise ValueError("need 2 <= P0 < Q0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0,1)")
        if self.X <= self.Q0:
            raise ValueError("X must exceed Q0")

    @property
    def domain_hi(self):
        """Largest n the weight can touch: 2(1+delta)X."""
        return int(math.floor(2.0 * (1.0 + self.delta) * self.X))


def _scan_band(lo, hi, P0):
    """(lam, qmin) over [lo, hi): Liouville sign and the smallest prime
    factor >= P0 (inf when none)."""
    lo, hi = int(lo), int(hi)
    base = arith_core.primes_upto(math.isqrt(hi - 1)).primes
    omega, _, first = arith_core._sieve_segment(lo, hi, base, pmin=P0)
    lam = (1 - 2 * (omega & 1)).astype(np.int8)
    return lam, np.where(first > 0, first, np.inf)


def _q_window(w, p, m, qmin_m):
    """Exact dQ/Q measure of the admissible Q-window for n = p*m."""
    one = 1.0 + w.delta
    lo = max(float(w.P0), p / one, w.X / m)
    hi = min(float(w.Q0), float(p), 2.0 * w.X / m, qmin_m / one)
    if hi > lo:
        return math.log(hi / lo)
    return 0.0


def ramare_weight(w, n):
    """Weight value at a single integer n, exact closed-form measures."""
    n = int(n)
    if n < 2:
        return 0.0
    total = 0.0
    m_rest = n
    p_list = []
    d = 2
    while d * d <= m_rest:
        if m_rest % d == 0:
            p_list.append(d)
            while m_rest % d == 0:
                m_rest //= d
        d += 1 if d == 2 else 2
    if m_rest > 1:
        p_list.append(m_rest)
    one = 1.0 + w.delta
    for p in p_list:
        if not w.P0 < p <= one * w.Q0:
            continue
        m = n // p
        lam_m, qmin_m = _scan_band(m, m + 1, w.P0)
        total += _q_window(w, p, m, float(qmin_m[0]))
    return total / math.log(one)


def weight_array(w):
    """Weight values for every n in (X, 2(1+delta)X], cached on w."""
    if w._u is not None:
        return w._u
    n_lo, n_hi = w.X, w.domain_hi
    one = 1.0 + w.delta
    u = np.zeros(n_hi - n_lo, dtype=np.float64)  # index n - X - 1
    m_hi = n_hi // (w.P0 + 1) + 2
    _, qmin = _scan_band(1, m_hi, w.P0)
    band = arith_core.primes_upto(int(one * w.Q0)).primes
    band = band[band > w.P0]
    for p in band:
        p = int(p)
        first = (n_lo // p + 1) * p
        ns = np.arange(first, n_hi + 1, p, dtype=np.int64)
        if ns.size == 0:
            continue
        ms = ns // p
        qm = qmin[ms - 1]
        lo = np.maximum(np.maximum(float(w.P0), p / one), w.X / ms)
        hi = np.minimum.reduce([
            np.full(len(ms), min(float(w.Q0), float(p))),
            2.0 * w.X / ms,
            qm / one,
        ])
        good = hi > lo
        u[ns[good] - n_lo - 1] += np.log(hi[good] / lo[good])
    u /= math.log(one)
    w._u = u
    return u


@dataclass
class ErrReport:
    members: list        # (n, u) with |u - indicator| > 1e-12
    near_misses: list    # (n, u) with deviation in (1e-12, 1e-6]
    density: float


def err_set(w, tol=1e-12, near_tol=1e-6):
    """Where the weight disagrees with the indicator of (X, 2X]."""
    u = weight_array(w)
    ns = np.arange(w.X + 1, w.domain_hi + 1, dtype=np.int64)
    indicator = (ns <= 2 * w.X).astype(np.float64)
    dev = np.abs(u - indicator)
    memb_idx = np.flatnonzero(dev > tol)
    near_idx = np.flatnonzero((dev > tol) & (dev <= near_tol))
    members = [(int(ns[i]), float(u[i])) for i in memb_idx]
    near = [(int(ns[i]), float(u[i])) for i in near_idx]
    return ErrReport(members, near, len(members) / w.X)


def _z2_data(w):
    """lam and qmin over the full m-range (X/Q0, 2X/P0]."""
    m_lo = int(w.X // w.Q0)
    m_hi = int(2 * w.X // w.P0) + 1
    lam, qmin = _scan_band(max(m_lo, 1), m_hi + 1, w.P0)
    return max(m_lo, 1), lam, qmin


def _line_point(t):
    """s = 1 + it; a non-finite t is a usage error, not a nan residual."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return 1.0 + 1j * t


def _n_terms(w, s):
    """n over (X, 2(1+delta)X] as float64, and lambda(n) n^{-s}."""
    lam_n, _ = _scan_band(w.X + 1, w.domain_hi + 1, w.P0)
    ns = np.arange(w.X + 1, w.domain_hi + 1, dtype=np.float64)
    return ns, lam_n * np.exp(-s * np.log(ns))


@dataclass
class _BandSeries:
    """The two factors of the identity at one s.

    Z1(Q) sums -p^{-s} over band primes p in (Q, (1+delta)Q]; Z2(Q) sums
    lambda(m) m^{-s} over cofactors m in (X/Q, 2X/Q] with no prime factor
    in [P0, (1+delta)Q). Both are step functions of Q.
    """

    w: RamareWeight
    band: np.ndarray   # band primes in (P0, (1+delta)Q0], float64
    pvals: np.ndarray  # -p^{-s}
    ms: np.ndarray     # cofactors in (X/Q0, 2X/P0], float64
    mvals: np.ndarray  # lambda(m) m^{-s}
    qmin: np.ndarray   # smallest prime factor >= P0 of each m (inf when none)

    @classmethod
    def at(cls, w, s):
        one = 1.0 + w.delta
        band = arith_core.primes_upto(int(one * w.Q0)).primes
        band = band[band > w.P0].astype(np.float64)
        m_base, lam_m, qmin_m = _z2_data(w)
        ms = np.arange(m_base, m_base + len(lam_m), dtype=np.float64)
        mvals = lam_m * np.exp(-s * np.log(ms))
        pvals = -np.exp(-s * np.log(band)) if len(band) else np.zeros(0, np.complex128)
        return cls(w, band, pvals, ms, mvals, qmin_m)

    def product(self, Q):
        """Z1(Q) Z2(Q); Z2 is not evaluated where Z1 vanishes."""
        w, one = self.w, 1.0 + self.w.delta
        in_band = (self.band > Q) & (self.band <= one * Q)
        z1 = self.pvals[in_band].sum() if in_band.any() else 0j
        if z1 == 0:
            return 0j
        keep = (self.ms > w.X / Q) & (self.ms <= 2 * w.X / Q) & (self.qmin >= one * Q)
        z2 = self.mvals[keep].sum() if keep.any() else 0j
        return z1 * z2

    def node_breaks(self, centers):
        """Sorted node indices, 0 and len(centers) included, between which
        Z1 Z2 is constant along the increasing array centers.

        Every membership test in product() is monotone in Q, so each prime
        and each cofactor is active on one run of consecutive nodes. The
        run ends are searched on the same float expressions the tests
        evaluate, so the masks agree at every node of a piece.
        """
        w, one, n = self.w, 1.0 + self.w.delta, len(centers)
        up = one * centers
        return np.unique(np.concatenate([
            [0, n],
            # run ends, in the order of the tests in product()
            np.searchsorted(centers, self.band, "left"),   # p > Q stops
            np.searchsorted(up, self.band, "left"),        # p <= (1+d)Q starts
            n - np.searchsorted((w.X / centers)[::-1], self.ms, "left"),      # m > X/Q starts
            n - np.searchsorted((2 * w.X / centers)[::-1], self.ms, "left"),  # m <= 2X/Q stops
            np.searchsorted(up, self.qmin, "right"),       # qmin >= (1+d)Q stops
        ]))

    def q_breaks(self):
        """Every Q in [P0, Q0] where Z1 or Z2 can jump, P0 and Q0 included."""
        w, one = self.w, 1.0 + self.w.delta
        qmin = self.qmin[np.isfinite(self.qmin)]
        cuts = np.concatenate([[w.P0, w.Q0], self.band, self.band / one,
                               w.X / self.ms, 2 * w.X / self.ms, qmin / one])
        return np.unique(np.clip(cuts, w.P0, w.Q0))


def factorization_identity_residual(w, t, q_nodes):
    """Residual of the band identity at s = 1 + it.

    Left side: sum over (X, 2X] of lambda(n) n^{-s} minus the error-set
    term. Right side: (1/log(1+delta)) times the midpoint log-Q quadrature
    of Z1(Q) Z2(Q) with q_nodes nodes. The integrand is piecewise constant
    in Q, so the residual is pure quadrature error and shrinks at least
    linearly as nodes double. Empty prime band gives residual <= 1e-10.

    Z1 Z2 is evaluated once per run of nodes on which it is constant and
    summed node by node in order, so the value is bit-for-bit that of the
    plain per-node loop (kept in tests/oracles.py). Known false failure: a
    one-prime band such as P0=60, Q0=61 does not pool its midpoint error
    over primes, so the pooled residual need not halve as nodes double;
    factorization_identity_exact is the sharp statement there.
    """
    if q_nodes < 16:
        raise ValueError("q_nodes must be at least 16")
    s = _line_point(t)
    one = 1.0 + w.delta

    ns, nvals = _n_terms(w, s)
    lhs = fsum_complex(nvals[ns <= 2 * w.X])
    u = weight_array(w)
    indicator = (ns <= 2 * w.X).astype(np.float64)
    z_err = fsum_complex((indicator - u) * nvals)

    series = _BandSeries.at(w, s)
    log_lo, log_hi = math.log(w.P0), math.log(w.Q0)
    du = (log_hi - log_lo) / q_nodes
    centers = np.exp(log_lo + du * (np.arange(q_nodes) + 0.5))
    breaks = series.node_breaks(centers)
    piece = np.array([series.product(centers[i]) * du for i in breaks[:-1]],
                     dtype=np.complex128)
    # a running sum in node order, as the per-node loop adds
    acc = np.add.accumulate(np.repeat(piece, np.diff(breaks)))[-1]
    rhs = acc / math.log(one)
    return abs(lhs - z_err - rhs)


@dataclass
class ExactIdentity:
    residual: float  # |sum u(n) lambda(n) n^{-s} - integral / log(1+delta)|
    scale: float     # sum |u(n) n^{-s}|
    envelope: float  # 8 (1 + 1/L + |t| log N) eps * scale, see below

    @property
    def ratio(self):
        """residual / envelope; an empty band makes both sides exactly 0."""
        if self.envelope > 0:
            return self.residual / self.envelope
        return 0.0 if self.residual == 0 else math.inf


def factorization_identity_exact(w, t):
    """The band identity at s = 1 + it with the Q-integral done exactly.

    Z1 Z2 is constant between consecutive jumps at p, p/(1+delta), X/m,
    2X/m and qmin_m/(1+delta), clipped to [P0, Q0], so the integral of
    Z1 Z2 dQ/Q is the sum over pieces [a, b] of Z1 Z2 log(b/a). Divided by
    log(1+delta) it equals the sum over (X, 2(1+delta)X] of
    u(n) lambda(n) n^{-s} up to rounding only.

    Envelope: 8 (1 + 1/L + |t| log N) eps sum |u(n) n^{-s}|, where
    L = min(log(1+delta), log(Q0/P0)) is the longest Q-window and
    N = 2(1+delta)X. Per term and per sum the rounding is a few ulps (the
    1); each window's log-measure, in u(n) and in log(b/a), is rounded to
    about eps absolute, i.e. eps/L relative (the 1/L); and n^{-s} =
    exp(-s log n) carries its phase t log n to about |t| log n ulps. A
    missing or misplaced Q-window shows as a residual the size of a whole
    term, far above the envelope.
    """
    s = _line_point(t)
    one = 1.0 + w.delta
    _, nvals = _n_terms(w, s)
    terms = weight_array(w) * nvals
    lhs = fsum_complex(terms)
    scale = fsum(np.abs(terms))

    series = _BandSeries.at(w, s)
    cuts = series.q_breaks()
    lo, hi = cuts[:-1], cuts[1:]
    rhs = fsum_complex([series.product(q) * d for q, d in
                        zip(np.sqrt(lo * hi), np.log(hi / lo))]) / math.log(one)
    longest = min(math.log(one), math.log(w.Q0 / w.P0))
    ulps = 8.0 * (1.0 + 1.0 / longest + abs(s.imag) * math.log(w.domain_hi))
    return ExactIdentity(abs(lhs - rhs), scale,
                         ulps * np.finfo(np.float64).eps * scale)
