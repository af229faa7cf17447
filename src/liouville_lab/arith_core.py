"""Segmented factor sieves and the elementary counting functions built on them.

The central object is FactorTable: smallest prime factor, prime-factor count
(with multiplicity), Liouville sign and Mobius value for every integer in a
half-open window [lo, hi). Everything else in the package that needs lambda,
mu or Lambda values at scale goes through the segmented passes here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .util import INT64_MAX, BudgetError, fsum

DEFAULT_SEGMENT = 1 << 18
SPAN_BUDGET = 1 << 26


@dataclass
class PrimeList:
    """Primes up to an inclusive bound, ascending."""

    bound: int
    primes: np.ndarray

    def __len__(self):
        return len(self.primes)


@dataclass
class FactorTable:
    """Per-integer factor data on [lo, hi)."""

    lo: int
    hi: int
    spf: np.ndarray      # smallest prime factor, 0 for n = 1
    omega: np.ndarray    # number of prime factors with multiplicity
    lam: np.ndarray      # Liouville sign (-1)^omega, int8
    mu: np.ndarray       # Mobius value, int8

    def _idx(self, n):
        if not self.lo <= n < self.hi:
            raise IndexError("n=%d outside [%d, %d)" % (n, self.lo, self.hi))
        return n - self.lo

    def liouville(self, n):
        return int(self.lam[self._idx(n)])

    def mobius(self, n):
        return int(self.mu[self._idx(n)])

    def smallest_prime_factor(self, n):
        if n < 2:
            raise ValueError("spf defined for n >= 2")
        return int(self.spf[self._idx(n)])

    def big_omega(self, n):
        return int(self.omega[self._idx(n)])


def primes_upto(bound):
    """PrimeList of all primes <= bound via boolean Eratosthenes."""
    bound = int(bound)
    if bound < 2:
        return PrimeList(bound, np.zeros(0, dtype=np.int64))
    mask = np.ones(bound + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return PrimeList(bound, np.flatnonzero(mask).astype(np.int64))


def _segments(lo, hi, segment_len, budget=SPAN_BUDGET):
    """Base primes up to sqrt(hi-1) and the (a, b) bounds tiling [lo, hi).

    Raises ValueError unless 1 <= lo < hi, OverflowError when hi does not
    fit the 64-bit invariants and BudgetError when the span exceeds budget.
    """
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    if hi - 1 > INT64_MAX or (math.isqrt(hi - 1) + 1) ** 2 > INT64_MAX:
        raise OverflowError("sieve range exceeds 64-bit budget")
    if hi - lo > budget:
        raise BudgetError("span %d exceeds budget %d" % (hi - lo, budget))
    base = primes_upto(math.isqrt(hi - 1)).primes
    return base, [(a, min(a + segment_len, hi)) for a in range(lo, hi, segment_len)]


def _sieve_segment(lo, hi, base_primes, pmin=2):
    """(omega, sqfree, first) on one segment [lo, hi).

    base_primes must cover sqrt(hi-1). One strided pass per prime power
    p^k < hi, with no division inside the loop: omega counts prime factors
    with multiplicity, sqfree flags square-free n, and first is the smallest
    prime factor >= pmin (0 when there is none). Primes run in descending
    order, so the smallest one is the last written into first; pmin >= hi
    skips first for the paths that need only omega and sqfree. What the
    base-prime powers leave of n is 1 or a single prime above sqrt(hi-1).
    """
    ps = base_primes[base_primes * base_primes < hi][::-1]
    p_all, pk_all, pk = [ps], [ps], ps
    while pk.size:
        more = pk <= (hi - 1) // ps
        ps, pk = ps[more], pk[more] * ps[more]
        p_all.append(ps)
        pk_all.append(pk)
    p_all, pk_all = np.concatenate(p_all), np.concatenate(pk_all)
    starts = (-lo) % pk_all
    omega = np.zeros(hi - lo, dtype=np.int16)
    smooth = np.ones(hi - lo, dtype=np.int64)
    sqfree = np.ones(hi - lo, dtype=bool)
    first = np.zeros(hi - lo, dtype=np.int64)
    for p, pk, s in zip(p_all.tolist(), pk_all.tolist(), starts.tolist()):
        omega[s::pk] += 1
        smooth[s::pk] *= p
        if pk == p:
            if p >= pmin:
                first[s::p] = p
        elif pk == p * p:
            sqfree[s::pk] = False
    n = np.arange(lo, hi, dtype=np.int64)
    omega += smooth != n
    if pmin < hi:
        cof = n // smooth
        np.copyto(first, cof, where=(first == 0) & (cof >= pmin))
    return omega, sqfree, first


def build_sieve(lo, hi, segment_len=DEFAULT_SEGMENT):
    """FactorTable over [lo, hi), processed in segments of segment_len.

    Base primes up to sqrt(hi-1) are sieved once up front. Raises
    BudgetError when the span exceeds the memory budget and OverflowError
    when hi does not fit the 64-bit invariants.
    """
    lo, hi = int(lo), int(hi)
    base, bounds = _segments(lo, hi, segment_len)
    spf = np.empty(hi - lo, dtype=np.int64)
    omega = np.empty(hi - lo, dtype=np.int16)
    lam = np.empty(hi - lo, dtype=np.int8)
    mu = np.empty(hi - lo, dtype=np.int8)
    for a, b in bounds:
        seg = slice(a - lo, b - lo)
        omega[seg], sq, spf[seg] = _sieve_segment(a, b, base)
        lam[seg] = 1 - 2 * (omega[seg] & 1)
        mu[seg] = np.where(sq, lam[seg], 0)
    return FactorTable(lo, hi, spf, omega, lam, mu)


def liouville_range(lo, hi, segment_len=DEFAULT_SEGMENT):
    """int8 array of lambda(n) for n in [lo, hi); lean path for bulk scans."""
    lo, hi = int(lo), int(hi)
    base, bounds = _segments(lo, hi, segment_len)
    out = np.empty(hi - lo, dtype=np.int8)
    for a, b in bounds:
        omega, _, _ = _sieve_segment(a, b, base, pmin=b)
        out[a - lo : b - lo] = 1 - 2 * (omega & 1)
    return out


def mobius_range(lo, hi, segment_len=DEFAULT_SEGMENT):
    """int8 array of mu(n) for n in [lo, hi), segmented."""
    lo, hi = int(lo), int(hi)
    base, bounds = _segments(lo, hi, segment_len)
    out = np.empty(hi - lo, dtype=np.int8)
    for a, b in bounds:
        omega, sq, _ = _sieve_segment(a, b, base, pmin=b)
        out[a - lo : b - lo] = np.where(sq, 1 - 2 * (omega & 1), 0)
    return out


def von_mangoldt_minus_one_range(lo, hi):
    """float64 array of Lambda(n) - 1 for n in [lo, hi); Lambda = log p
    exactly at prime powers p^k, zero elsewhere."""
    lo, hi = int(lo), int(hi)
    out = np.full(hi - lo, -1.0)
    flags = primality_range(lo, hi)
    idx = np.flatnonzero(flags)
    out[idx] += np.log((idx + lo).astype(np.float64))
    for p in primes_upto(math.isqrt(hi - 1)).primes:
        p = int(p)
        pk = p * p
        while pk < hi:
            if pk >= lo:
                out[pk - lo] = math.log(p) - 1.0
            pk *= p
    if lo <= 1 < hi:
        out[1 - lo] = -1.0
    return out


def primality_range(lo, hi, segment_len=DEFAULT_SEGMENT):
    """Boolean primality for n in [lo, hi), segmented Eratosthenes."""
    lo, hi = int(lo), int(hi)
    base, bounds = _segments(lo, hi, segment_len)
    out = np.ones(hi - lo, dtype=bool)
    if lo <= 1:
        out[: 2 - lo] = False
    for a, b in bounds:
        seg = out[a - lo : b - lo]
        for p in base:
            p = int(p)
            if p * p >= b:
                break
            first = max(p * p, ((a + p - 1) // p) * p)
            seg[first - a :: p] = False
    return out


def summatory_lambda(x, segment_len=DEFAULT_SEGMENT):
    """Exact integer value of sum_{n <= x} lambda(n), streamed by segment."""
    x = int(x)
    if x < 1:
        return 0
    base, bounds = _segments(1, x + 1, segment_len, budget=math.inf)
    total = 0
    for a, b in bounds:
        omega, _, _ = _sieve_segment(a, b, base, pmin=b)
        total += b - a - 2 * int(np.count_nonzero(omega & 1))
    return total


def chebyshev_psi(x):
    """sum of log p over prime powers p^k <= x, with Lambda = log p exact."""
    x = int(x)
    if x < 2:
        return 0.0
    plist = primes_upto(x).primes
    logs = np.log(plist.astype(np.float64))
    total = fsum(logs)
    extra = []
    for p in plist[plist <= math.isqrt(x)]:
        p = int(p)
        pk = p * p
        while pk <= x:
            extra.append(math.log(p))
            pk *= p
    return total + math.fsum(extra)


def prime_reciprocal_sum(x):
    """sum of 1/p over primes p <= x, exactly rounded accumulation."""
    plist = primes_upto(int(x)).primes
    if len(plist) == 0:
        return 0.0
    return fsum(1.0 / plist.astype(np.float64))


def count_excluding_prime_band(x, p_lo, p_hi, segment_len=DEFAULT_SEGMENT):
    """#{1 <= n < x : no prime factor of n lies in [p_lo, p_hi]}."""
    x, p_lo, p_hi = int(x), int(p_lo), int(p_hi)
    if x < 2:
        return 0
    if p_lo > p_hi:
        return x - 1
    band = primes_upto(min(p_hi, x - 1)).primes
    band = band[band >= p_lo]
    total = 0
    for a in range(1, x, segment_len):
        b = min(a + segment_len, x)
        keep = np.ones(b - a, dtype=bool)
        for p in band:
            p = int(p)
            start = (-a) % p
            keep[start :: p] = False
        total += int(keep.sum())
    return total


def prime_pair_count(X, k):
    """#{p <= X : p and p + k both prime}."""
    X, k = int(X), int(k)
    if X < 2:
        return 0
    flags = primality_range(1, X + k + 1)
    # flags[i] answers for n = 1 + i
    p_ok = flags[:X]
    shifted = flags[k : X + k]
    return int(np.count_nonzero(p_ok & shifted))


def squarefree_count(x, segment_len=DEFAULT_SEGMENT):
    """#{n <= x : n squarefree}, via mu(d) floor(x/d^2) over d <= sqrt(x)."""
    x = int(x)
    if x < 1:
        return 0
    d_max = math.isqrt(x)
    if d_max < 2:
        return x
    table = build_sieve(1, d_max + 1)
    total = 0
    for d in range(1, d_max + 1):
        m = int(table.mu[d - 1])
        if m:
            total += m * (x // (d * d))
    return total
