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
from .util import BudgetError, PreconditionError, fsum, fsum_complex


@dataclass
class RamareWeight:
    """Parameters of the weight; arrays over its domain are cached."""

    X: int
    delta: float
    P0: int
    Q0: int
    _u: np.ndarray = field(default=None, repr=False, compare=False)
    _sweep: "_Sweep" = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (2 <= self.P0 < self.Q0):
            raise PreconditionError("need 2 <= P0 < Q0")
        if not 0.0 < self.delta < 1.0:
            raise PreconditionError("delta must lie in (0,1)")
        if self.X <= self.Q0:
            raise PreconditionError("X must exceed Q0")
        # the weight array and the sieves behind it span (X, domain_hi]
        if self.domain_hi - self.X > arith_core.SPAN_BUDGET:
            raise BudgetError("span %d exceeds budget %d"
                              % (self.domain_hi - self.X, arith_core.SPAN_BUDGET))

    @property
    def domain_hi(self):
        """Largest n the weight can touch: 2(1+delta)X."""
        return int(math.floor(2.0 * (1.0 + self.delta) * self.X))


def weight_array(w):
    """Weight values for every n in (X, 2(1+delta)X], cached on w."""
    if w._u is not None:
        return w._u
    n_lo, n_hi = w.X, w.domain_hi
    one = 1.0 + w.delta
    u = np.zeros(n_hi - n_lo, dtype=np.float64)  # index n - X - 1
    sweep = _Sweep.of(w)
    for p in sweep.band:
        p = int(p)
        first = (n_lo // p + 1) * p
        ns = np.arange(first, n_hi + 1, p, dtype=np.int64)
        if ns.size == 0:
            continue
        ms = ns // p
        qm = sweep.qmin_all[ms - 1]
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


def weight_upper_envelope(w):
    """1 plus the rounding allowance of weight_array's u(n) <= 1.

    u(n) = sum_j log(hi_j/lo_j) / log(1 + delta) over the band primes
    p | n, at most k = floor(log n_max / log p_min) of them. With e = eps
    and L = log(1 + delta): one = 1 + delta rounds by e/2 relative, so
    p/one and qm/one are within e of their exact values and X/m, 2X/m
    within e/2; max and min keep these, and hi/lo, which rounds once more,
    is within 2.5 e relative of its exact value, so its log is within
    2.5 e of the exact one, plus np.log's ulp, e log(hi/lo); a term whose
    exact ratio is at most 1 may enter at most 2.5 e high. The k adds into
    u(n) round by e/2 of a partial sum each, all below S = u L <= L, so
    the sum is within e (2.5 k + (k + 1) S/2) of its exact value. log(one)
    is within e/2 + e L of L and the division rounds by e/2, so an exact
    u <= 1 is computed below 1 + e ((2.5 k + 0.5)/L + (k + 1)/2 + 2), the
    last 2 holding the division's 1.5 and the second-order terms."""
    L = math.log1p(w.delta)
    band = _Sweep.of(w).band
    k = int(math.log(w.domain_hi) / math.log(float(band[0]))) if len(band) else 0
    e = float(np.finfo(np.float64).eps)
    return 1.0 + e * ((2.5 * k + 0.5) / L + (k + 1) / 2 + 2)


@dataclass
class ErrReport:
    members: list        # (n, u) with |u - indicator| > 1e-12
    density: float


def err_set(w):
    """Where the weight disagrees with the indicator of (X, 2X]."""
    u = weight_array(w)
    ns = np.arange(w.X + 1, w.domain_hi + 1, dtype=np.int64)
    indicator = (ns <= 2 * w.X).astype(np.float64)
    dev = np.abs(u - indicator)
    members = [(int(ns[i]), float(u[i])) for i in np.flatnonzero(dev > 1e-12)]
    return ErrReport(members, len(members) / w.X)


def _line_point(t):
    """s = 1 + it; a non-finite t is a usage error, not a nan residual."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    return 1.0 + 1j * t


class _Sweep:
    """What the weight and the identity read of one weight, sieved once.

    Z1(Q) sums -p^{-s} over band primes p in (Q, (1+delta)Q]; Z2(Q) sums
    lambda(m) m^{-s} over cofactors m in (X/Q, 2X/Q] with no prime factor
    in [P0, (1+delta)Q). Both are step functions of Q. One cofactor sieve
    from 1 serves the weight's cofactors and Z2's (X/Q0, 2X/P0].
    """

    def __init__(self, w):
        self.w, one = w, 1.0 + w.delta
        self.band = arith_core.primes_in(w.P0, one * w.Q0).astype(np.float64)
        m_hi = max(w.domain_hi // (w.P0 + 1), 2 * w.X // w.P0) + 2
        lam, least = arith_core.least_factor_range(m_hi, w.P0)
        self.qmin_all = np.where(least > 0, least, np.inf)  # index m - 1
        z2 = slice(max(w.X // w.Q0, 1) - 1, 2 * w.X // w.P0 + 1)
        self.ms = np.arange(z2.start + 1, z2.stop + 1, dtype=np.float64)
        self.lam_m, self.qmin = lam[z2], self.qmin_all[z2]
        self.lam_n = arith_core.liouville_range(w.X + 1, w.domain_hi + 1)

    @classmethod
    def of(cls, w):
        if w._sweep is None:
            w._sweep = cls(w)
        return w._sweep

    def n_values(self, s):
        """lambda(n) n^{-s} over (X, 2(1+delta)X]."""
        ns = np.arange(self.w.X + 1, self.w.domain_hi + 1, dtype=np.float64)
        return self.lam_n * np.exp(-s * np.log(ns))

    def products(self, s, qs):
        """Z1(Q) Z2(Q) at each Q of the ascending array qs, evaluated once
        per run of qs on which it is constant; Z2 is not evaluated where
        Z1 vanishes. Band and cofactor range are slices found on the float
        expressions of the membership tests, so each sum adds the elements
        of the plain masks in their order."""
        w, one = self.w, 1.0 + self.w.delta
        pvals = -np.exp(-s * np.log(self.band))
        mvals = self.lam_m * np.exp(-s * np.log(self.ms))
        breaks = self.node_breaks(qs)
        Q = qs[breaks[:-1]]  # the first node of each run
        ends = [np.searchsorted(self.band, Q, "right").tolist(),
                np.searchsorted(self.band, one * Q, "right").tolist(),
                np.searchsorted(self.ms, w.X / Q, "right").tolist(),
                np.searchsorted(self.ms, 2 * w.X / Q, "right").tolist()]
        vals = np.zeros(len(Q), dtype=np.complex128)
        for k, (a, b, c, d) in enumerate(zip(*ends)):
            z1 = pvals[a:b].sum()
            if z1 != 0:
                vals[k] = z1 * mvals[c:d][self.qmin[c:d] >= one * Q[k]].sum()
        return np.repeat(vals, np.diff(breaks))

    def node_breaks(self, centers):
        """Sorted node indices, 0 and len(centers) included, between which
        Z1 Z2 is constant along the increasing array centers.

        Every membership test in products() is monotone in Q, so each prime
        and each cofactor is active on one run of consecutive nodes. The
        run ends are searched on the same float expressions the tests
        evaluate, so the masks agree at every node of a piece.
        """
        w, one, n = self.w, 1.0 + self.w.delta, len(centers)
        up = one * centers
        return np.unique(np.concatenate([
            [0, n],
            # run ends, in the order of the tests in products()
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
    of Z1(Q) Z2(Q) with q_nodes nodes. The integrand is a step function of
    log Q, so the residual is quadrature error plus rounding, and
    residual_envelope bounds it at any q_nodes. An empty prime band makes
    both sides vanish.

    Z1 Z2 is evaluated once per run of nodes on which it is constant and
    summed node by node in order, so the value is bit-for-bit that of the
    plain per-node loop (kept in tests/oracles.py).
    """
    if q_nodes < 16:
        raise ValueError("q_nodes must be at least 16")
    s = _line_point(t)
    one = 1.0 + w.delta

    sweep = _Sweep.of(w)
    nvals = sweep.n_values(s)
    lhs = fsum_complex(nvals[:w.X])  # n <= 2X
    u = weight_array(w)
    indicator = (np.arange(len(u)) < w.X).astype(np.float64)
    z_err = fsum_complex((indicator - u) * nvals)

    log_lo, log_hi = math.log(w.P0), math.log(w.Q0)
    du = (log_hi - log_lo) / q_nodes
    centers = np.exp(log_lo + du * (np.arange(q_nodes) + 0.5))
    # a running sum in node order, as the per-node loop adds
    acc = np.add.accumulate(sweep.products(s, centers) * du)[-1]
    rhs = acc / math.log(one)
    return abs(lhs - z_err - rhs)


@dataclass
class ExactIdentity:
    residual: float  # |sum u(n) lambda(n) n^{-s} - integral / log(1+delta)|
    scale: float     # sum |u(n) n^{-s}|
    envelope: float  # 8 (1 + 1/L + |t| log N) eps * scale, see below
    jumps: float     # sum |J_i| of the jumps of Z1 Z2 between pieces
    peak: float      # max |Z1 Z2| over the pieces

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
    sweep = _Sweep.of(w)
    terms = weight_array(w) * sweep.n_values(s)
    lhs = fsum_complex(terms)
    scale = fsum(np.abs(terms))

    cuts = sweep.q_breaks()
    lo, hi = cuts[:-1], cuts[1:]
    pieces = sweep.products(s, np.sqrt(lo * hi))
    rhs = fsum_complex(pieces * np.log(hi / lo)) / math.log(one)
    longest = min(math.log(one), math.log(w.Q0 / w.P0))
    ulps = 8.0 * (1.0 + 1.0 / longest + abs(s.imag) * math.log(w.domain_hi))
    return ExactIdentity(abs(lhs - rhs), scale,
                         ulps * np.finfo(np.float64).eps * scale,
                         fsum(np.abs(np.diff(pieces))), float(np.abs(pieces).max()))


def residual_envelope(w, ex, q_nodes):
    """Bound on factorization_identity_residual(w, t, q_nodes), given
    ex = factorization_identity_exact(w, t); 0 only when u vanishes.

    Midpoint theorem: in log Q, f = Z1 Z2 is a step function with jumps
    J_i between the pieces. In a cell of width du = log(Q0/P0)/q_nodes,
    |f(v) - f(node)| is at most the sum of the |J_i| between v and the
    node, and each J_i lies on the far side of the node for at most du/2
    of the cell. So the midpoint rule errs by at most (du/2) sum |J_i|.

    Rounding, each rounding charged eps (twice the unit roundoff, so the
    second-order terms and the residual's own final subtraction fit):
    - nodes: log Q at a node is off by eps (log(Q0/P0) + log Q0 + 1), the
      membership tests flip within eps of the cuts, and the grid ends miss
      log P0, log Q0 by as little, all within eta = 3 eps (1 + log Q0). A
      jump costs du/2 + eta in its cell, and under 4 eta more elsewhere
      (only when du < 2 eta); each grid end costs eta peak.
    - the exact side: ex.envelope bounds the rounding of both sides of
      the exact identity, in u, n^{-s} and log(b/a).
    - the running sum of q_nodes products f du, each at most peak du, and
      its division by log(1+delta): (q_nodes + 1) eps peak log(Q0/P0).
    - the left side: |lhs|, |z_err| <= K = (1 + max|u|) log(N/X), as
      |indicator - u| <= 1 + max|u| and the sum of 1/n over (X, N] stays
      below log(N/X) by more than the ulps of |n^{-s}|. Both sums, two
      roundings per z_err term and lhs - z_err make 6K; the exact side's
      sum of u(n) lambda(n) n^{-s} adds 2 scale. When u vanishes, lhs and
      z_err add the same doubles and this term is exactly 0.
    """
    eps = np.finfo(np.float64).eps
    span = math.log(w.Q0 / w.P0)
    du = span / q_nodes
    eta = 3.0 * eps * (1.0 + math.log(w.Q0))
    midpoint = (du / 2 + 5.0 * eta) * ex.jumps + 2.0 * eta * ex.peak
    running = (q_nodes + 1) * eps * ex.peak * span
    K = (1.0 + float(np.abs(weight_array(w)).max())) * math.log(w.domain_hi / w.X)
    lhs = eps * (6.0 * K + 2.0 * ex.scale) if ex.scale > 0 else 0.0
    return (midpoint + running) / math.log(1.0 + w.delta) + ex.envelope + lhs
