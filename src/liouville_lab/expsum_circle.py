"""Exponential sums over integers and primes, rational approximation,
Dirichlet characters with the additive-to-multiplicative bridge,
autocorrelation tables, and ternary convolution sums.
"""

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import arith_core
from .dirichlet_poly import _cell_hits
from .util import BudgetError, PreconditionError, fsum, fsum_complex

TWO_PI = 2.0 * math.pi


def e_of(x):
    """e(x) = exp(2 pi i x)."""
    return cmath.exp(2j * math.pi * x)


def dist_to_z(x):
    """Distance from x to the nearest integer."""
    return abs(x - round(x))


# ------------------------------------------------------ rational approx

@dataclass
class RationalApprox:
    a: int
    q: int
    err: float  # |alpha - a/q|


def _convergents(frac):
    a = []
    x = Fraction(frac)
    while True:
        ai = x.numerator // x.denominator
        a.append(ai)
        rem = x - ai
        if rem == 0:
            break
        x = 1 / rem
    out = []
    p0, q0, p1, q1 = 1, 0, a[0], 1
    out.append((p1, q1))
    for ai in a[1:]:
        p0, q0, p1, q1 = p1, q1, ai * p1 + p0, ai * q1 + q0
        out.append((p1, q1))
    return out


def dirichlet_approx(alpha, Q):
    """Convergent a/q of alpha with the smallest q <= Q satisfying
    |alpha - a/q| <= 1/(qQ). Exact integer arithmetic on the binary
    rational that represents alpha."""
    Q = int(Q)
    if Q < 1:
        raise ValueError("Q must be positive")
    exact = Fraction(alpha)
    for a, q in _convergents(exact):
        if q > Q:
            break
        if abs(exact - Fraction(a, q)) * q * Q <= 1:
            return RationalApprox(a, q, float(abs(exact - Fraction(a, q))))
    raise ArithmeticError("no convergent found; should not happen for Q >= 1")


# ------------------------------------------------------ geometric sums

def geometric_sum_check(beta, m0, m1):
    """(sum of e(beta m) for m0 <= m <= m1, envelope (2/pi)/d(beta, Z)).
    The sum is the direct fsum for at most 4096 terms, the closed form
    otherwise.

    A beta within 1e-15 of an integer is treated as the integral
    case: the sum is the interval length and the envelope is infinite.
    """
    m0, m1 = int(m0), int(m1)
    if m1 < m0:
        raise ValueError("need m1 >= m0")
    count = m1 - m0 + 1
    d = dist_to_z(beta)
    if d <= 1e-15:
        return complex(count), float("inf")
    if count <= 4096:
        ms = np.arange(m0, m1 + 1, dtype=np.float64)
        value = fsum_complex(np.exp(2j * np.pi * beta * ms))
    else:
        # closed form keeps the check exact for long ranges
        value = e_of(beta * m0) * (e_of(beta * count) - 1.0) / (e_of(beta) - 1.0)
    return value, (2.0 / math.pi) / d


@dataclass
class VinogradovResult:
    value: float
    bound: float
    a: int
    q: int


def vinogradov_sum(alpha, N, Xcap, C=4.0):
    """sum over |n| <= N of min(Xcap, 1/d(n alpha, Z)) with its envelope
    C (N/q + 1)(Xcap + q log q), q taken from the convergent of alpha that
    minimizes the envelope (every convergent satisfies |alpha - a/q| <= 1/q^2).
    """
    N = int(N)
    if N < 0 or Xcap <= 0:
        raise ValueError("need N >= 0 and Xcap > 0")
    ns = np.arange(-N, N + 1, dtype=np.float64)
    frac = ns * float(alpha)
    d = np.abs(frac - np.round(frac))
    with np.errstate(divide="ignore"):
        inv = np.where(d > 0, 1.0 / np.where(d > 0, d, 1.0), np.inf)
    value = fsum(np.minimum(float(Xcap), inv))
    best = None
    for a, q in _convergents(Fraction(alpha)):
        if q > max(2 * N, 1):
            break
        b = C * (N / q + 1.0) * (Xcap + q * math.log(q))
        if best is None or b < best[0]:
            best = (b, a, q)
    return VinogradovResult(value, best[0], best[1], best[2])


# ------------------------------------------------------ prime exponential sums

def fourth_moment_primes(h):
    """sum over all j of r(j)^2 where r(j) counts prime pairs p, q <= h
    with q - p = j. Pure pair counting, no quadrature."""
    plist = arith_core.primes_upto(int(h))
    k = len(plist)
    if k == 0:
        return 0
    counts = np.zeros(int(h) + 1, dtype=np.int64)
    chunk = max(1, (1 << 24) // max(k, 1))
    for a in range(0, k, chunk):
        b = min(a + chunk, k)
        diffs = plist[a:b, None] - plist[None, :]
        pos = diffs[diffs > 0]
        if len(pos):
            counts += np.bincount(pos, minlength=int(h) + 1)
    r0 = k  # j = 0 pairs
    total = r0 * r0 + 2 * int(np.dot(counts, counts))
    return total


def major_arc_measure(h, epsilon, grid_points):
    """Grid measure of {alpha in [0,1) : |sum_{p<=h} e(alpha p)| > eps h/log h}.

    Cells of width 1/grid_points; a cell joins when either endpoint or the
    midpoint exceeds the threshold (conservative over-cover).
    """
    h = int(h)
    G = int(grid_points)
    if G < 10**3:
        raise ValueError("grid_points must be at least 1e3")
    threshold = epsilon * h / math.log(h)
    plist = arith_core.primes_upto(h)
    M = 2 * G
    # at alpha = j/M the phase e(alpha p) depends only on p mod M
    vec = np.bincount(plist % M, minlength=M).astype(np.float64)
    mod = np.abs(np.fft.fft(vec))
    exceed = mod > threshold
    cell_hit = _cell_hits(np.append(exceed, exceed[0]))  # the grid is periodic
    return float(np.count_nonzero(cell_hit)) / G


# ------------------------------------------------------ characters

def _primitive_root(pe, p, e):
    """Primitive root mod p^e for odd p."""
    phi = pe // p * (p - 1)
    fac = [f for f, _ in arith_core.factorize(phi)]
    g = 2
    while True:
        if math.gcd(g, pe) == 1 and all(pow(g, phi // f, pe) != 1 for f in fac):
            return g
        g += 1


def _factor_group(p, e):
    """[(order, dlog)] for the units mod p^e: one cyclic factor per
    generator, dlog an int64 array over the residues mod p^e holding each
    unit's exponent of that generator (0 off the units)."""
    pe = p**e
    if pe == 2:
        return []
    if p == 2:
        # every unit is (-1)^a 5^b, a < 2, b < 2^(e-2); mod 4 only a is left
        half = pe // 4
        sign, five = np.zeros(pe, dtype=np.int64), np.zeros(pe, dtype=np.int64)
        x = 1
        for b in range(half):
            five[x] = five[pe - x] = b
            sign[pe - x] = 1
            x = x * 5 % pe
        return [(2, sign)] if pe == 4 else [(2, sign), (half, five)]
    phi = pe // p * (p - 1)
    g = _primitive_root(pe, p, e)
    dlog = np.zeros(pe, dtype=np.int64)
    x = 1
    for k in range(phi):
        dlog[x] = k
        x = x * g % pe
    return [(phi, dlog)]


MAX_DENSE_Q = 1024


@dataclass
class CharacterTable:
    """All Dirichlet characters mod q, indexed with the principal first.

    Characters are enumerated by mixed-radix exponent tuples over the
    cyclic decomposition of the unit group; values come from exact
    discrete logarithms, one int64 array over the residues mod q per
    generator.
    """

    q: int
    orders: list          # cyclic factor orders, flattened
    _dlogs: list = field(repr=False)
    _rows: dict = field(default_factory=dict, repr=False)

    @property
    def n_chars(self):
        n = 1
        for d in self.orders:
            n *= d
        return n

    def exponents(self, index):
        """Mixed-radix exponents of index over the factor orders; an index
        outside [0, n_chars) raises IndexError."""
        if not 0 <= index < self.n_chars:
            raise IndexError("character index %d outside [0, %d)" % (index, self.n_chars))
        k = []
        for d in self.orders:
            k.append(index % d)
            index //= d
        return k

    def row(self, index):
        """Dense value vector over residues 0..q-1 (cached): e(phase) at the
        units, the phase summing (k dlog mod d) / d over the generators in
        order, and 0 off the units."""
        if index not in self._rows:
            phase = np.zeros(self.q)
            for k, d, dlog in zip(self.exponents(index), self.orders, self._dlogs):
                phase += (k * dlog % d) / d
            units = np.gcd(np.arange(self.q), self.q) == 1
            out = np.zeros(self.q, dtype=np.complex128)
            out[units] = np.exp(2j * np.pi * phase[units])
            self._rows[index] = out
        return self._rows[index]

    @property
    def values(self):
        if self.q > MAX_DENSE_Q:
            raise BudgetError("dense table for q=%d exceeds budget" % self.q)
        return np.vstack([self.row(i) for i in range(self.n_chars)])


@functools.lru_cache(maxsize=32)
def characters_mod(q):
    """CharacterTable for modulus q (q = 1 gives the trivial table).

    Each table, with the dense rows it caches, is built once and shared by
    every caller: the divisor bridge reads the one table of each M | q,
    in additive_to_multiplicative and again in reconstruct_additive.
    32 entries hold every divisor of any q <= MAX_DENSE_Q."""
    q = int(q)
    if not 1 <= q <= 10**4:
        raise PreconditionError("q must lie in 1..1e4")
    orders = []
    dlogs = []
    residues = np.arange(q)
    for p, e in arith_core.factorize(q):
        for d, dlog in _factor_group(p, e):
            orders.append(d)
            dlogs.append(dlog[residues % p**e])
    return CharacterTable(q, orders, dlogs)


def euler_phi(q):
    phi = 1
    for p, e in arith_core.factorize(q):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def additive_to_multiplicative(q):
    """[(d, C_d)] over the divisors d of q, d ascending: the expansion
    e(an/q) = sum_d sum_chi C_d[a, chi] chi(n/d), chi mod M = q/d, for
    every a < q at once. C_d = E_M conj(V_M)^T / phi(M), one matrix
    product, with V_M = characters_mod(M).values and the phases
    E_M[a, r] = e((ar mod M) / M) taken from integer residues; each
    coefficient is a unit-averaged twisted sum, of modulus <= 1."""
    q = int(q)
    if q < 1:
        raise ValueError("q must be positive")
    out = []
    for d in range(1, q + 1):
        if q % d:
            continue
        M = q // d
        table = characters_mod(M)
        V = table.values
        E = np.exp(2j * np.pi * (np.outer(np.arange(q), np.arange(M)) % M / M))
        out.append((d, E @ V.conj().T / table.n_chars))
    return out


def reconstruct_additive(coeffs, ns):
    """Resum the expansion at the integers ns for every a < q: the array
    [a, j] = sum_d C_d B_d, with B_d[chi, j] = V_M[chi, (n_j/d) mod M] when
    d | n_j and 0 otherwise (a chi mod M vanishes off the units, so only
    d = gcd(n_j, q) contributes)."""
    ns = np.asarray(ns, dtype=np.int64)
    total = 0
    for d, C in coeffs:
        M = len(C) // d
        V = characters_mod(M).values
        total += C @ np.where(ns % d == 0, V[:, ns // d % M], 0)
    return total


# ------------------------------------------------------ correlations

@dataclass
class CorrelationTable:
    X: int
    h: int
    c: np.ndarray  # c[j] for j = 1..h at index j-1, exact int64


def chowla_avg(X, h):
    """Autocorrelation table c_j = sum_{X<n, n+j<=2X} lambda(n) lambda(n+j)
    for 1 <= j <= h, plus the statistic (1/(h X^2)) sum_{j<=h/2} c_j^2.

    Each c_j is one exact int64 dot product.
    """
    X, h = int(X), int(h)
    if h >= X:
        raise PreconditionError("need h < X")
    lam = arith_core.liouville_range(X + 1, 2 * X + 1).astype(np.int64)
    c = np.zeros(h, dtype=np.int64)
    for j in range(1, h + 1):
        c[j - 1] = np.dot(lam[: X - j], lam[j:X])
    js = np.arange(1, h // 2 + 1)
    stat = float(np.dot(c[js - 1].astype(np.float64), c[js - 1].astype(np.float64)))
    stat /= h * float(X) ** 2
    return CorrelationTable(X, h, c), stat


def prime_shift_correlation(X, h):
    """(exact sum over p <= h of sum_{X<n<=2X} lambda(n) lambda(n+p),
    normalized value * log h / (h X))."""
    X, h = int(X), int(h)
    lam = arith_core.liouville_range(X + 1, 2 * X + h + 1).astype(np.int64)
    plist = arith_core.primes_upto(h)
    total = 0
    for p in plist:
        total += int(np.dot(lam[:X], lam[int(p) : int(p) + X]))
    return total, total * math.log(h) / (h * X)


def ternary_sum(N, weight="unit"):
    """Exact sum of w(a) w(b) w(c) over positive a+b+c = N.

    FFT convolution with integer rounding; coefficients are bounded by N
    so the rounding margin is exact. N <= 1e5.
    """
    N = int(N)
    if N > 10**5:
        raise BudgetError("N capped at 1e5")
    if N < 3:
        return 0
    if weight == "unit":
        v = np.ones(N - 2, dtype=np.float64)
    elif weight == "liouville":
        v = arith_core.liouville_range(1, N - 1).astype(np.float64)
    else:
        raise ValueError("weight must be 'unit' or 'liouville'")
    size = 1
    while size < 2 * (N - 2):
        size *= 2
    fv = np.fft.rfft(v, size)
    conv = np.fft.irfft(fv * fv, size)[: 2 * (N - 2) - 1]
    c2 = np.rint(conv).astype(np.int64)  # c2[k] = sum_{a+b = k+2}
    drift = float(np.max(np.abs(conv - c2)))
    if drift >= 0.49:
        raise ArithmeticError("convolution rounding margin lost: %g" % drift)
    # contract against w(c), c = N - m for m = 2..N-1
    wvals = v.astype(np.int64)
    return int(np.dot(c2[: N - 2], wvals[::-1]))


def parseval_torus_check(coeffs):
    """Mean of |sum a_j e(j theta)|^2 over 2J+2 equispaced theta against
    sum |a_j|^2; the two agree to rounding for degree-J data."""
    a = np.asarray(coeffs, dtype=np.complex128)
    J = len(a) - 1
    M = 2 * J + 2
    samples = np.fft.fft(np.conj(a), M)  # sum conj(a_j) e(-2pi i jk/M)
    mean = fsum(np.abs(samples) ** 2) / M
    return mean, fsum(np.abs(a) ** 2)
