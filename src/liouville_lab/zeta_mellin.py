"""Smoothed cutoffs, their Mellin transforms, zeta on the right half plane,
and the truncated contour formula tying smoothed partial sums to vertical
line integrals.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import arith_core
from .util import QuadratureError, fsum, fsum_complex


@dataclass
class SmoothCutoff:
    """Ramp cutoff: 1 on (0, 1-delta], linear down to 0 at 1."""

    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")


def psi_delta(x, cutoff):
    """Piecewise-linear cutoff value at x > 0."""
    if x <= 0:
        raise ValueError("cutoff defined for x > 0")
    d = cutoff.delta
    if x <= 1.0 - d:
        return 1.0
    if x >= 1.0:
        return 0.0
    return (1.0 - x) / d


def mellin_psi(s, cutoff):
    """Closed-form Mellin transform of the ramp cutoff at s != 0, -1.

    Equals (1/(s(s+1))) * (1 - (1-delta)^(s+1)) / delta.
    """
    s = complex(s)
    if s == 0 or s == -1:
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


def zeta_strip(s, terms=None, with_error=False):
    """zeta(s) on Re s > 0, s != 1, by truncated series + corrected tail.

    The tail beyond M = terms is replaced by the integral term
    M^(1-s)/(s-1) - M^(-s)/2 and Bernoulli corrections, which is what the
    pole-separated series representation sums to. Default M follows
    max(1000, 8|t|). Set with_error to also get a truncation estimate.
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
    if with_error:
        # next-term magnitude as the standard truncation estimate
        est = abs(poch * mpow) / fact * (1.0 / 30.0)
        return val, est
    return val


def zeta_strip_grid(sigma, ts, terms):
    """Vector zeta(sigma + i t) for a t-array, shared truncation M."""
    ts = np.asarray(ts, dtype=np.float64)
    M = int(terms)
    n = np.arange(1, M + 1, dtype=np.float64)
    logn = np.log(n)
    s = sigma + 1j * ts
    out = np.zeros(len(ts), dtype=np.complex128)
    chunk = max(1, (1 << 22) // max(M, 1))
    for a in range(0, len(ts), chunk):
        b = min(a + chunk, len(ts))
        phases = np.exp(np.multiply.outer(-s[a:b], logn))
        out[a:b] = phases.sum(axis=1)
    out += M ** (1.0 - s) / (s - 1.0) - 0.5 * M ** (-s)
    poch = s.copy()
    mpow = M ** (-s - 1.0)
    fact = 2.0
    for k, b2 in enumerate(_BERN, start=1):
        out += b2 / fact * poch * mpow
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        mpow = mpow / (M * M)
        fact *= (2 * k + 1) * (2 * k + 2)
    return out


def z_lambda_residual(s, N):
    """|sum_{n<=N} lambda(n) n^{-s} - zeta(2s)/zeta(s)| on Re s > 1."""
    s = complex(s)
    if s.real <= 1:
        raise ValueError("needs Re s > 1")
    N = int(N)
    lam = arith_core.liouville_range(1, N + 1).astype(np.float64)
    n = np.arange(1, N + 1, dtype=np.float64)
    series = fsum_complex(lam * np.exp(-s * np.log(n)))
    target = zeta_strip(2 * s) / zeta_strip(s)
    return abs(series - target)


@dataclass
class PerronResult:
    integral: complex
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
    ratios = n / x
    weights = np.clip((1.0 - ratios) / cutoff.delta, 0.0, 1.0)
    return fsum(vals * weights), fsum(vals[n <= x])


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


def _mellin_grid(sigma, ts, cutoff):
    s = sigma + 1j * np.asarray(ts, dtype=np.float64)
    d = cutoff.delta
    return (1.0 - (1.0 - d) ** (s + 1)) / (s * (s + 1) * d)


def perron_truncated(kind, x, cutoff, T, slack=20.0, rel_tol=1e-4):
    """Truncated vertical-line integral against the smoothed partial sum.

    Computes (1/2pi) int_{-T}^{T} x^(sigma+it) Mpsi(sigma+it) Z_f(sigma+it) dt
    at sigma = 1 + 1/log x on a trapezoid grid with step halving certified to
    rel_tol. Returns the integral, the smoothed and sharp sums, and the
    envelope slack * delta * x * log x that callers check |integral - sharp|
    against.
    """
    x = float(x)
    if x <= 2:
        raise ValueError("x must exceed 2")
    sigma = 1.0 + 1.0 / math.log(x)
    step = min(0.05, math.pi / (4.0 * math.log(x)))
    half_nodes = int(math.ceil(T / step)) + 1
    # fine grid at half step; coarse pass reuses every other node; the
    # integrand at -t is the conjugate of the value at t, so only t >= 0
    # is evaluated
    fine_half = 2 * (half_nodes - 1) + 1
    ts_half = np.linspace(0.0, T, fine_half)
    zvals = _z_on_grid(kind, sigma, ts_half)
    mvals = _mellin_grid(sigma, ts_half, cutoff)
    xs = np.exp((sigma + 1j * ts_half) * math.log(x))
    pos = xs * mvals * zvals
    integrand = np.concatenate((np.conj(pos[:0:-1]), pos))
    ts = np.concatenate((-ts_half[:0:-1], ts_half))
    dt_fine = ts[1] - ts[0]

    def trap(vals, dt):
        w = np.ones(len(vals))
        w[0] = w[-1] = 0.5
        return complex(np.dot(w, vals)) * dt

    fine = trap(integrand, dt_fine) / (2.0 * math.pi)
    coarse = trap(integrand[::2], 2.0 * dt_fine) / (2.0 * math.pi)
    scale = max(abs(fine), 1e-12)
    halving_delta = abs(fine - coarse) / scale
    if halving_delta > rel_tol:
        raise QuadratureError(
            "step halving moved the integral by %.3g (tol %.3g)"
            % (halving_delta, rel_tol)
        )
    smoothed, sharp = _smoothed_sum(kind, x, cutoff)
    envelope = slack * cutoff.delta * x * math.log(x)
    return PerronResult(fine, smoothed, sharp, envelope, halving_delta)
