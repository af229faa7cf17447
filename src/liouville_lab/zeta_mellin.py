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
from .dirichlet_poly import _EPS, _grid, _phase_sum, _step_limit, _trap
from .util import ExactSum, fsum, fsum_complex


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
    return (1.0 - (1.0 - d) ** (s + 1)) / (s * (s + 1) * d)


def mellin_psi_bound(s, cutoff):
    """Envelope min(2/(delta |s(s+1)|), 4/|s|) for the transform modulus."""
    s = complex(s)
    d = cutoff.delta
    return min(2.0 / (d * abs(s * (s + 1))), 4.0 / abs(s))


# Bernoulli numbers B2, B4, B6 for the corrected tail
_BERN = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0)


def zeta_strip(s, terms=None):
    """zeta(s) on Re s > 0, s != 1, by truncated series + corrected tail.

    The tail beyond M = terms is replaced by the integral term
    M^(1-s)/(s-1) - M^(-s)/2 and Bernoulli corrections, which is what the
    pole-separated series representation sums to. Default M follows
    max(1000, 8|t|).
    """
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
    # head already counts n = M fully, so the boundary term enters with -1/2
    val = head + M ** (1.0 - s) / (s - 1.0) - 0.5 * M ** (-s)
    # Euler-Maclaurin correction terms: B_{2k}/(2k)! * (s)_{2k-1} * M^{-s-2k+1}
    poch = s
    mpow = M ** (-s - 1.0)
    fact = 2.0
    corr = 0.0 + 0.0j
    for k, b in enumerate(_BERN, start=1):
        corr += b / fact * poch * mpow
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        mpow /= M * M
        fact *= (2 * k + 1) * (2 * k + 2)
    val += corr
    return val


def zeta_strip_grid(sigma, ts, terms):
    """Vector zeta(sigma + i t) for a t-array, shared truncation M. The
    tail's powers M^{1-s} and M^{-s-1} are M m and m/M for the one complex
    power m = M^{-s} per node."""
    ts = np.asarray(ts, dtype=np.float64)
    M = int(terms)
    logn = np.log(np.arange(1, M + 1, dtype=np.float64))
    s = sigma + 1j * ts
    out = _phase_sum(-logn, np.exp(-sigma * logn), ts)
    m = M ** (-s)
    out += M * m / (s - 1.0) - 0.5 * m
    poch = s.copy()
    mpow = m / M
    fact = 2.0
    for k, b2 in enumerate(_BERN, start=1):
        out += b2 / fact * poch * mpow
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        mpow = mpow / (M * M)
        fact *= (2 * k + 1) * (2 * k + 2)
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
    exp(-s log n), each within (1 + 1.5 s log M) eps relative (log n and
    the product round once each, exp within an ulp), and a tail of smaller
    terms rounded alike: within (2 + 2 s log M) eps Z(s) in all. As
    1 <= zeta(2 sigma) < zeta(sigma), the quotient's error is at most the
    sum of its two heads' errors plus eps/2.
    """
    sigma = float(sigma)
    if not sigma > 1:
        raise ValueError("needs real sigma > 1")
    logm = math.log(1000)
    zs, z2s = sigma / (sigma - 1.0), 2.0 * sigma / (2.0 * sigma - 1.0)
    rounding = 1.5 * zs + (2 + 2 * sigma * logm) * zs + (2 + 4 * sigma * logm) * z2s + 0.5
    return float(N) ** (1.0 - sigma) / (sigma - 1.0) + rounding * float(_EPS)


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
    # sigma >= 1 here; M >= max(1000, 2|t|) keeps the corrected tail far
    # below 1e-8 relative (the public default 8|t| is for sigma >= 1/2)
    tmax = float(np.max(np.abs(ts))) if len(ts) else 0.0
    terms = max(1000, int(math.ceil(2 * tmax)))
    if kind == "unit":
        return zeta_strip_grid(sigma, ts, terms)
    z1 = zeta_strip_grid(sigma, ts, terms)
    terms2 = max(1000, int(math.ceil(4 * tmax)))
    z2 = zeta_strip_grid(2 * sigma, 2 * ts, terms2)
    return z2 / z1


def perron_truncated(kind, x, cutoff, T):
    """Truncated vertical-line integral against the smoothed partial sum.

    Computes (1/2pi) int_{-T}^{T} x^(sigma+it) Mpsi(sigma+it) Z_f(sigma+it) dt
    at sigma = 1 + 1/log x on a trapezoid grid, and reports the relative
    change under step halving as halving_delta. Returns the integral, the
    smoothed and sharp sums, and the envelope 20 delta x log x that callers
    check |integral - sharp| against.
    """
    x = float(x)
    if x <= 2:
        raise ValueError("x must exceed 2")
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    sigma = 1.0 + 1.0 / math.log(x)
    # the integrand at -t is the conjugate of the value at t, so the
    # integral over [-T, T] is twice the real part of the one over [0, T],
    # and the trapezoid sums on the mirrored grid are twice those of the
    # real parts on the half grid, whose alternate nodes form the coarse one
    ts_half = _grid(0.0, T, min(0.05, _step_limit(x)))
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
