"""Smoothed cutoffs, their Mellin transforms, zeta on the right half plane,
and the truncated contour formula tying smoothed partial sums to vertical
line integrals. The lambda-series against zeta(2s)/zeta(s) reads lambda
from one sieve walk over [1, N] and streams its terms through reused
buffers into one exact sum, so no array is N long.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import arith_core
from .dirichlet_poly import (_EPS, _TERMS_ALIGN, _bernoulli_over_factorial, _fft_size, _nodes,
                             _phase_sum, _step_limit, _trap)
from .util import BudgetError, ExactSum, fsum, fsum_complex


@dataclass
class SmoothCutoff:
    """Ramp cutoff: 1 on (0, 1-delta], linear down to 0 at 1."""

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")


def psi_delta(x, cutoff):
    """Piecewise-linear cutoff at x > 0, a float or an array of them.

    1 on (0, 1-delta] and 0 from 1 on are tested before the slope
    (1-x)/delta, which rounds to 0.9999999999999998 at x = 0.9, delta = 0.1.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("cutoff defined for x > 0")
    d = cutoff.delta
    out = np.where(x <= 1.0 - d, 1.0, np.where(x >= 1.0, 0.0, (1.0 - x) / d))
    return out if out.ndim else float(out)


def mellin_psi(s, cutoff):
    """Closed-form Mellin transform of the ramp cutoff at s != 0, -1, a
    number or an array of them.

    Equals (1/(s(s+1))) * (1 - (1-delta)^(s+1)) / delta.
    """
    s = np.asarray(s, dtype=np.complex128) if isinstance(s, np.ndarray) else complex(s)
    if np.any((s == 0) | (s == -1)):
        raise ValueError("transform has poles at s = 0, -1")
    d = cutoff.delta
    # (1 - delta)^(s+1), one exponential of s + 1 times a real log
    out = (1.0 - np.exp((s + 1.0) * math.log1p(-d))) / (s * (s + 1) * d)
    return out if isinstance(s, np.ndarray) else complex(out)


def mellin_psi_bound(s, cutoff):
    """Envelope min(2/(delta |s(s+1)|), 4/|s|) for the transform modulus."""
    s = complex(s)
    d = cutoff.delta
    return min(2.0 / (d * abs(s * (s + 1))), 4.0 / abs(s))


# Euler-Maclaurin corrections in every zeta tail, and [B_2/2!, ...,
# B_{2K+2}/(2K+2)!]: the K correction coefficients and the remainder's
_ZETA_ORDER = 10
_ZETA_COEFFS = _bernoulli_over_factorial(_ZETA_ORDER + 1)


def _em_tail(s, M):
    """zeta(s) - sum_{n<=M} n^{-s} by Euler-Maclaurin with K = _ZETA_ORDER
    corrections, at a number or an array s, to within _em_remainder(s, M):

        M^{1-s}/(s-1) - M^{-s}/2 + sum_{k<=K} B_2k/(2k)! (s)_{2k-1} M^{1-s-2k},

    (s)_j = s(s+1)...(s+j-1); the head counts n = M fully, so the boundary
    term enters with -1/2. The corrections are M^{-s} (s/M) H, H = sum_k d_k
    prod_{j<k} (s+2j-1)(s+2j) with d_k = B_2k/(2k)! u^{k-1}, u = 1/M^2, in
    Horner form on the running Pochhammer product,
    H = d_1 + (s+1)(s+2) (d_2 + (s+3)(s+4) (d_3 + ...)), in place; M^{-s} is
    one exponential of -s log M. Every step writes into one of two buffers,
    as fresh node-long temporaries cost page faults. Returns an array (0-d for
    a number)."""
    s = np.asarray(s, dtype=np.complex128)
    d = [b * (1.0 / (M * M)) ** k for k, b in enumerate(_ZETA_COEFFS[:_ZETA_ORDER])]
    h = np.full(s.shape, d[-1], dtype=np.complex128)
    q = np.empty_like(h)
    for k in range(_ZETA_ORDER - 1, 0, -1):
        np.add(s, 2 * k - 1, out=q)
        h *= q
        q += 1.0  # s + 2k
        h *= q
        h += d[k - 1]
    h *= s
    h /= M
    np.subtract(s, 1.0, out=q)
    h += np.divide(M, q, out=q)
    h -= 0.5
    h *= np.exp(np.multiply(s, -math.log(M), out=q), out=q)
    return h


def _em_remainder(s, M):
    """Backlund's bound on the error of _em_tail(s, M) at Re s > -(2K + 1),
    K = _ZETA_ORDER (Edwards, Riemann's Zeta Function, 6.4): the modulus of
    the first omitted term times |s + 2K + 1|/(sigma + 2K + 1),

        |R_K| <= |s + 2K + 1|/(sigma + 2K + 1) |B_{2K+2}|/(2K+2)!
                 |(s)_{2K+1}| M^{-sigma-2K-1},

    summed in logs, so no product overflows; at a number or an array s. It
    grows with |Im s|, as each |s + j| does."""
    s = np.asarray(s, dtype=np.complex128)
    j = 2 * _ZETA_ORDER + 1
    # log |(s)_{2K+1}| + log |s + 2K + 1|
    logs = np.log(np.abs(np.add.outer(s, np.arange(j + 1)))).sum(axis=-1)
    return np.exp(logs - np.log(s.real + j) + math.log(abs(_ZETA_COEFFS[-1]))
                  - (s.real + j) * math.log(M))


def _zeta_terms(sigma, tmax):
    """The least M with _em_remainder(sigma + i tmax, M) <= eps (sigma - 1)/sigma
    at sigma > 1: then the tail is within eps |zeta| relative at every
    |t| <= tmax, since the bound grows with |t| and |zeta(sigma + it)| >=
    zeta(2 sigma)/zeta(sigma) > (sigma - 1)/sigma (|1/zeta(s)| <=
    sum |mu(n)| n^{-sigma}; zeta(2 sigma) > 1 and zeta(sigma) < sigma/(sigma - 1)).
    The bound is A M^{-(sigma + 2K + 1)}, so M starts from its root and
    steps to the least integer."""
    tol = _EPS * (sigma - 1.0) / sigma
    s = complex(sigma, tmax)
    j = 2 * _ZETA_ORDER + 1
    M = max(1, math.ceil(math.exp((math.log(_em_remainder(s, 1)) - math.log(tol)) / (sigma + j))))
    while M > 1 and _em_remainder(s, M - 1) <= tol:
        M -= 1
    while _em_remainder(s, M) > tol:
        M += 1
    return M


def zeta_strip(s, terms=None):
    """zeta(s) on Re s > 0, s != 1: the exactly rounded sum of its first M =
    terms terms (util.fsum_complex, one rounding, so no BLAS thread count
    enters) plus _em_tail(s, M), whose error Backlund's bound
    _em_remainder(s, M) caps (Edwards 6.4). Default M = max(1000, 8|t|)."""
    s = complex(s)
    if s.real <= 0:
        raise ValueError("strip evaluation needs Re s > 0")
    if s == 1:
        raise ValueError("pole at s = 1")
    if terms is None:
        terms = max(1000, int(8 * abs(s.imag)))
    M = int(terms)
    n = np.arange(1, M + 1, dtype=np.float64)
    head = fsum_complex(np.exp(-s * np.log(n)))
    return head + complex(_em_tail(s, M))


def zeta_strip_grid(sigma, ts, terms):
    """Vector zeta(sigma + i t) for a t-array, shared truncation M = terms:
    the M-term head by _phase_sum plus _em_tail. At each node the tail's
    truncation is within Backlund's bound _em_remainder(sigma + i t, M)
    (Edwards 6.4) and the head within _phase_sum's drift,
    4 eps (1 + max|t| log M) sum_{n<=M} n^{-sigma}. _z_on_grid takes the
    least M at which that bound at max|t| is eps (sigma - 1)/sigma
    (_zeta_terms), rounded up to a multiple of 8."""
    ts = np.asarray(ts, dtype=np.float64)
    M = int(terms)
    logn = np.log(np.arange(1, M + 1, dtype=np.float64))
    out = _phase_sum(-logn, np.exp(-sigma * logn), ts)
    out += _em_tail(sigma + 1j * ts, M)
    return out


def _lambda_series(s, N):
    """sum_{n<=N} lambda(n) n^{-s} on Re s > 1, exactly rounded from the
    rounded terms.

    lambda comes piece by piece, arith_core.DEFAULT_SEGMENT integers at a
    time, from one arith_core._stream over [1, N], and each piece's terms
    are written into one buffer per pass: n, then n^{-sigma} at real s or
    e^{-s log n} at complex s, times lambda(n). The pieces go into one
    exact accumulator (one per part at complex s), whose value does not
    depend on where the pieces are cut; fresh N-long arrays would cost a
    page fault per 4 KiB. Only a complex s pays for the complex
    exponential."""
    lam = arith_core._stream(1, N + 1)
    size = min(arith_core.DEFAULT_SEGMENT, N)
    offsets = np.arange(size, dtype=np.float64)
    ns = np.empty_like(offsets)
    real = s.imag == 0
    terms = ns if real else np.empty(size, dtype=np.complex128)
    re, im = ExactSum(), ExactSum()
    for a in range(1, N + 1, arith_core.DEFAULT_SEGMENT):
        b = min(a + arith_core.DEFAULT_SEGMENT, N + 1)
        n = np.add(offsets[:b - a], a, out=ns[:b - a])  # exact: n < 2^53
        if real:
            t = np.power(n, -s.real, out=n)
        else:
            t = np.multiply(-s, np.log(n, out=n), out=terms[:b - a])
            np.exp(t, out=t)
        np.multiply(lam(a, b), t, out=t)
        re.add(t.real)
        if not real:
            im.add(t.imag)
    return re.value() if real else complex(re.value(), im.value())


def z_lambda_residual(s, N):
    """|sum_{n<=N} lambda(n) n^{-s} - zeta(2s)/zeta(s)| on Re s > 1, the
    series streamed by _lambda_series."""
    s = complex(s)
    if s.real <= 1:
        raise ValueError("needs Re s > 1")
    series = _lambda_series(s, int(N))
    target = zeta_strip(2 * s) / zeta_strip(s)
    return abs(series - target)


def z_lambda_envelope(sigma, N):
    """Bound on z_lambda_residual(sigma, N) at real sigma > 1.

    The tail: |sum_{n>N} lambda(n) n^{-sigma}| <= sum_{n>N} n^{-sigma}
    < N^{1-sigma}/(sigma - 1). Rounding, with Z(s) = s/(s - 1) > zeta(s):
    each n^{-sigma} is within an ulp and fsum rounds once, so the series is
    within 1.5 eps Z(sigma). zeta_strip at real s sums M = 1000 head terms
    exp(-s log n), each within (1 + 1.5 L) eps relative, L = s log M (log n
    and the product round once each, exp within an ulp), and fsum rounds
    once more: (1.5 + 1.5 L) eps of sum_{n<=M} n^{-s}. Its tail _em_tail
    is M^{-s} (M/(s - 1) - 1/2 + (s/M) H): M^{-s} is rounded like a head
    term, and the bracket's three roundings and the product's one give
    (4 + 1.5 L) eps of M^{1-s}/(s - 1) + M^{-s}/2 <= sum_{n>=M} n^{-s}
    (n^{-s} is convex); adding the two rounds once, eps/2 of zeta. As the
    two sums make zeta(s) + M^{-s}, M^{-s} < 1e-3 zeta(s), that is within
    (4.52 + 1.51 L) eps zeta(s) < (2 + 2 L) eps Z(s), as L >= log 1000.
    The slack, at least 0.87 eps Z(s), covers H: its share of the bracket,
    about s(s - 1)/(12 M^2), rounds within 2K eps of itself.
    Backlund's bound on each tail's truncation, _em_remainder(s, 1000),
    below 1e-63, is added as it stands.
    As 1 <= zeta(2 sigma) < zeta(sigma), the quotient's error is at most the
    sum of its two parts' errors plus eps/2.
    """
    sigma = float(sigma)
    if not sigma > 1:
        raise ValueError("needs real sigma > 1")
    logm = math.log(1000)
    zs, z2s = sigma / (sigma - 1.0), 2.0 * sigma / (2.0 * sigma - 1.0)
    rounding = 1.5 * zs + (2 + 2 * sigma * logm) * zs + (2 + 4 * sigma * logm) * z2s + 0.5
    truncation = float(_em_remainder(sigma, 1000) + _em_remainder(2 * sigma, 1000))
    return float(N) ** (1.0 - sigma) / (sigma - 1.0) + rounding * float(_EPS) + truncation


@dataclass
class PerronResult:
    integral: float
    smoothed_sum: float
    sharp_sum: float
    envelope: float
    halving_delta: float


def _smoothed_sum(kind, x, cutoff):
    hi = int(math.floor(x)) + 1
    n = np.arange(1, hi, dtype=np.float64)
    if kind == "unit":
        vals = np.ones(hi - 1)
    elif kind == "liouville":
        vals = arith_core.liouville_range(1, hi).astype(np.float64)
    else:
        raise ValueError("kind must be 'unit' or 'liouville'")
    return fsum(vals * psi_delta(n / x, cutoff)), fsum(vals[n <= x])


def _z_on_grid(kind, sigma, ts):
    """zeta(s) ("unit") or Z(s) = zeta(2s)/zeta(s) ("liouville") at s = sigma
    + i ts, sigma > 1. Each zeta grid takes its own M, the least at which
    Backlund's bound on the tail at max|t|, |s + 2K + 1|/(sigma + 2K + 1)
    |B_{2K+2}|/(2K+2)! |(s)_{2K+1}| M^{-sigma-2K-1} (Edwards 6.4), is at
    most eps (sigma - 1)/sigma, below |zeta| on the line (_zeta_terms):
    zeta(2s) at 2 sigma and 2 max|t|. M is then rounded up to a multiple of
    _TERMS_ALIGN, which only lowers the bound."""
    tmax = float(np.max(np.abs(ts))) if len(ts) else 0.0
    z1 = zeta_strip_grid(sigma, ts, _aligned_terms(sigma, tmax))
    if kind == "unit":
        return z1
    z2 = zeta_strip_grid(2 * sigma, 2 * ts, _aligned_terms(2 * sigma, 2 * tmax))
    return z2 / z1


def _aligned_terms(sigma, tmax):
    """_zeta_terms(sigma, tmax) rounded up to a multiple of _TERMS_ALIGN."""
    return -(-_zeta_terms(sigma, tmax) // _TERMS_ALIGN) * _TERMS_ALIGN


def perron_nodes(x, T):
    """Node count of perron_truncated's half grid on [0, T] at x, after its
    checks: ValueError unless x > 2 and 0 < T < inf, and BudgetError when
    the half grid's nodes, the Taylor-FFT size of a grid of that many nodes
    (dirichlet_poly._fft_size) or the floor(x) integers of the smoothed sum
    exceed arith_core.SPAN_BUDGET. It does no work, so a caller can check
    first."""
    x = float(x)
    if x <= 2:
        raise ValueError("x must exceed 2")
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    step = min(0.05, _step_limit(x))
    q = T / step
    nodes = _nodes(0.0, T, step) if q < arith_core.SPAN_BUDGET else 2.0 * q + 1
    if nodes > arith_core.SPAN_BUDGET:
        raise BudgetError("%g t-nodes exceed budget %d" % (nodes, arith_core.SPAN_BUDGET))
    M = _fft_size(nodes)
    if M > arith_core.SPAN_BUDGET:
        raise BudgetError("FFT size %d of %d t-nodes exceeds budget %d"
                          % (M, nodes, arith_core.SPAN_BUDGET))
    if math.floor(x) > arith_core.SPAN_BUDGET:
        raise BudgetError("span %d exceeds budget %d" % (math.floor(x), arith_core.SPAN_BUDGET))
    return nodes


def perron_truncated(kind, x, cutoff, T):
    """Truncated vertical-line integral against the smoothed partial sum.
    perron_nodes checks x, T and their sizes first.

    Computes (1/2pi) int_{-T}^{T} x^(sigma+it) Mpsi(sigma+it) Z_f(sigma+it) dt
    at sigma = 1 + 1/log x on a trapezoid grid, and reports the relative
    change under step halving as halving_delta. Returns the integral, the
    smoothed and sharp sums, and the envelope 20 delta x log x that callers
    check |integral - sharp| against.
    """
    nodes = perron_nodes(x, T)
    x = float(x)
    sigma = 1.0 + 1.0 / math.log(x)
    # the integrand at -t is the conjugate of the value at t, so the
    # integral over [-T, T] is twice the real part of the one over [0, T],
    # and the trapezoid sums on the mirrored grid are twice those of the
    # real parts on the half grid, whose alternate nodes form the coarse one
    ts_half = np.linspace(0.0, T, nodes)
    zvals = _z_on_grid(kind, sigma, ts_half)
    mvals = mellin_psi(sigma + 1j * ts_half, cutoff)
    xs = np.exp((sigma + 1j * ts_half) * math.log(x))
    re = (xs * mvals * zvals).real
    dt = T / (len(ts_half) - 1)
    fine, coarse = _trap(re, dt) / math.pi, _trap(re[::2], 2 * dt) / math.pi
    scale = max(abs(fine), 1e-12)
    halving_delta = abs(fine - coarse) / scale
    smoothed, sharp = _smoothed_sum(kind, x, cutoff)
    envelope = 20.0 * cutoff.delta * x * math.log(x)
    return PerronResult(fine, smoothed, sharp, envelope, halving_delta)
