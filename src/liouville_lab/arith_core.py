"""Segmented factor sieves and the elementary counting functions built on them.

The central object is FactorTable: smallest prime factor, prime-factor count
(with multiplicity), Liouville sign and Mobius value for every integer in a
half-open window [lo, hi). Everything else in the package that needs lambda,
mu or Lambda values at scale goes through the segmented passes here, and it
is the one home of factoring: trial division of a single integer, the primes
in a band (a, b] and the least prime factor above a floor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .util import INT64_MAX, BudgetError, fsum

DEFAULT_SEGMENT = 1 << 18
SPAN_BUDGET = 1 << 26


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
    """int64 array of the primes <= bound, ascending, from the segmented
    Eratosthenes of primality_range.

    Raises BudgetError before any work when the bound + 1 flags of [0, bound]
    exceed SPAN_BUDGET."""
    bound = int(bound)
    if bound < 2:
        return np.zeros(0, dtype=np.int64)
    if bound + 1 > SPAN_BUDGET:
        raise BudgetError("span %d exceeds budget %d" % (bound + 1, SPAN_BUDGET))
    return np.flatnonzero(primality_range(2, bound + 1)) + 2


def primes_in(a, b):
    """Primes p with a < p <= b for real bounds a and b, ascending."""
    plist = primes_upto(math.floor(b))
    return plist[plist > a]


def factorize(n):
    """[(p, e)] of an integer n >= 1 by trial division, p ascending."""
    n = int(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _check_span(lo, hi, budget=SPAN_BUDGET):
    """Raise ValueError unless 1 <= lo < hi, OverflowError when hi does not
    fit the 64-bit invariants and BudgetError when the span [lo, hi) exceeds
    budget. Streamed passes call it once for their whole span before any
    work, since each of their segments fits the budget on its own."""
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    if hi - 1 > INT64_MAX or (math.isqrt(hi - 1) + 1) ** 2 > INT64_MAX:
        raise OverflowError("sieve range exceeds 64-bit budget")
    if hi - lo > budget:
        raise BudgetError("span %d exceeds budget %d" % (hi - lo, budget))


WHEEL = 2520  # 2^3 3^2 5 7
WHEEL_PRIMES = (2, 3, 5, 7)


def _wheel_patterns():
    """(omega, smooth, sqfree) on the residues 0..WHEEL-1 from the wheel
    powers 2, 4, 8, 3, 9, 5 and 7: their part of omega and of the smooth
    product, and False where 4 or 9 divides."""
    omega = np.zeros(WHEEL, dtype=np.int16)
    smooth = np.ones(WHEEL, dtype=np.int64)
    sqfree = np.ones(WHEEL, dtype=bool)
    for p in WHEEL_PRIMES:
        pk = p
        while WHEEL % pk == 0:
            omega[::pk] += 1
            smooth[::pk] *= p
            pk *= p
    sqfree[::4] = sqfree[::9] = False
    return omega, smooth, sqfree


_WHEEL_PATTERNS = _wheel_patterns()


def _tile(pattern, r0, size):
    """pattern[(r0 + i) % len(pattern)] for i in 0..size-1, in a fresh array
    of exactly size entries."""
    out = np.empty(size, dtype=pattern.dtype)
    period = np.roll(pattern, -r0)[:size]
    k = len(period)
    out[:k] = period
    while k < size:  # k stays a multiple of len(pattern)
        n = min(k, size - k)
        out[k : k + n] = out[:n]
        k += n
    return out


def _sieve_segment(lo, hi, powers, pmin=2):
    """(omega, sqfree, first) on one segment [lo, hi).

    powers is _prime_powers(base, hi') for base primes covering sqrt(hi-1)
    and any hi' >= hi: one list serves every segment of a span. omega
    counts prime factors with multiplicity, sqfree flags square-free n, and
    first is the smallest prime factor >= pmin (0 when there is none; all 0
    when pmin >= hi, for the paths that need only omega and sqfree). No
    division runs per prime power. The powers p^k < hi of the primes with
    p^2 < hi fall in three parts:
    - wheel: the powers dividing WHEEL are periodic mod WHEEL, so their part
      of omega and of the smooth product, and the flags of 4 and 9, are
      tiled from one precomputed period (Pritchard's pre-sieve), and they
      are masked out of powers;
    - dense: every other power up to a cut of len/256 gets one strided pass;
    - scatter: the powers above the cut hit few n each, so _scatter builds
      all their hit indices at once and adds, multiplies and flags them in
      one call each.
    first is the minimum over the scatter hits, overwritten by the dense and
    then the wheel primes >= pmin in descending order, so the smallest wins.
    What the base-prime powers leave of n is 1 or a single prime above
    sqrt(hi-1): one division gives it where first is still 0.
    """
    size = hi - lo
    r0 = lo % WHEEL
    omega, smooth, sqfree = (_tile(pattern, r0, size) for pattern in _WHEEL_PATTERNS)
    first = np.zeros(size, dtype=np.int64)
    ps, pks = powers
    reached = (pks < hi) & (ps * ps < hi) & (WHEEL % pks != 0)
    ps, pks = ps[reached], pks[reached]
    # one strided call costs about as much as a few hundred scattered hits
    dense = pks <= size >> 8
    _scatter(lo, size, ps[~dense], pks[~dense], pmin, omega, smooth, sqfree, first)
    ps, pks = ps[dense].tolist(), pks[dense].tolist()
    starts = [-lo % pk for pk in pks]
    for p, pk, s in zip(ps, pks, starts):
        omega[s::pk] += 1
        smooth[s::pk] *= p
        if pk == p * p:
            sqfree[s::pk] = False
    big = smooth != np.arange(lo, hi, dtype=np.int64)
    omega += big
    if pmin < hi:
        leads = [(p, s) for p, pk, s in zip(ps, pks, starts) if pk == p >= pmin]
        leads += [(p, -lo % p) for p in WHEEL_PRIMES if p >= pmin]
        for p, s in sorted(leads, reverse=True):
            first[s::p] = p
        big &= first == 0
        i = np.flatnonzero(big)
        cof = (i + lo) // smooth[i]
        keep = cof >= pmin
        first[i[keep]] = cof[keep]
    return omega, sqfree, first


def _prime_powers(base_primes, hi):
    """(p, p^k) for every base prime p, all below hi, and every k with
    p^k < hi. The k = 1 entries come first, p ascending, then k = 2 and so
    on."""
    p_all, pk_all, ps, pk = [base_primes], [base_primes], base_primes, base_primes
    while pk.size:
        more = pk <= (hi - 1) // ps
        ps, pk = ps[more], pk[more] * ps[more]
        p_all.append(ps)
        pk_all.append(pk)
    return np.concatenate(p_all), np.concatenate(pk_all)


def _scatter(lo, size, ps, pks, pmin, omega, smooth, sqfree, first):
    """Add the hits of the prime powers pks of ps on [lo, lo + size) into
    omega, smooth and sqfree in one call each, and put the least p >= pmin
    among them into first, which is still all 0. ps and pks are ordered as
    _prime_powers orders them.

    Every hit index comes from one cumsum: each power repeats its step, and
    the first step of each run jumps from the last hit of the run before to
    the run's own start."""
    starts = -lo % pks
    counts = (size - 1 - starts) // pks + 1
    hit = counts > 0
    ps, pks, starts, counts = ps[hit], pks[hit], starts[hit], counts[hit]
    if not ps.size:
        return
    edges = np.zeros(len(ps) + 1, dtype=np.int64)
    np.cumsum(counts, out=edges[1:])
    steps = np.repeat(pks, counts)
    lasts = starts + (counts - 1) * pks
    steps[edges[:-1]] = starts - np.concatenate(([0], lasts[:-1]))
    idx = np.cumsum(steps)
    del steps  # so that at most two hit-long arrays are alive at once
    pvals = np.repeat(ps, counts)
    # a typed one: a Python int 1 sends ufunc.at down a loop about 25x slower
    np.add.at(omega, idx, np.ones(1, dtype=omega.dtype))
    np.multiply.at(smooth, idx, pvals)
    k1 = int(np.count_nonzero(pks == ps))
    sqfree[idx[edges[k1]:]] = False
    if pmin < lo + size:
        lead = slice(edges[np.searchsorted(ps[:k1], pmin)], edges[k1])
        first[idx[lead]] = INT64_MAX
        np.minimum.at(first, idx[lead], pvals[lead])


def _walk(lo, hi, pmin=math.inf, segment_len=None, budget=SPAN_BUDGET):
    """(seg, omega, sqfree, first) for each segment of [lo, hi) in turn: seg
    its slice of [lo, hi), the rest _sieve_segment's outputs for pmin.

    The span check, base primes and _prime_powers run once, when _walk is
    called, not on the first next(), so callers allocate after the check.
    Segments hold segment_len integers, DEFAULT_SEGMENT when None. Loop
    variables hold their arrays while the next segment is sieved, so
    callers unpack the arrays they copy straight into their outputs."""
    _check_span(lo, hi, budget)
    step = DEFAULT_SEGMENT if segment_len is None else segment_len
    powers = _prime_powers(primes_upto(math.isqrt(hi - 1)), hi)
    bounds = ((a, min(a + step, hi)) for a in range(lo, hi, step))
    return ((slice(a - lo, b - lo),) + _sieve_segment(a, b, powers, pmin) for a, b in bounds)


def build_sieve(lo, hi, segment_len=None):
    """FactorTable over [lo, hi), processed in segments of segment_len
    (DEFAULT_SEGMENT when None). Raises BudgetError when the span exceeds
    the memory budget and OverflowError when hi does not fit the 64-bit
    invariants."""
    lo, hi = int(lo), int(hi)
    segments = _walk(lo, hi, 2, segment_len)
    spf = np.empty(hi - lo, dtype=np.int64)
    omega = np.empty(hi - lo, dtype=np.int16)
    lam = np.empty(hi - lo, dtype=np.int8)
    mu = np.empty(hi - lo, dtype=np.int8)
    for seg, omega[seg], sq, spf[seg] in segments:
        lam[seg] = 1 - 2 * (omega[seg] & 1)
        mu[seg] = np.where(sq, lam[seg], 0)
    return FactorTable(lo, hi, spf, omega, lam, mu)


def liouville_range(lo, hi):
    """int8 array of lambda(n) for n in [lo, hi); lean path for bulk scans."""
    lo, hi = int(lo), int(hi)
    segments = _walk(lo, hi)
    out = np.empty(hi - lo, dtype=np.int8)
    for seg, omega, _, _ in segments:
        out[seg] = 1 - 2 * (omega & 1)
    return out


def least_factor_range(lo, hi, pmin):
    """(lam, first) on [lo, hi), segmented: lam(n) as int8 and the least
    prime factor of n that is >= pmin, 0 when there is none."""
    lo, hi = int(lo), int(hi)
    segments = _walk(lo, hi, pmin)
    lam = np.empty(hi - lo, dtype=np.int8)
    first = np.empty(hi - lo, dtype=np.int64)
    for seg, omega, _, first[seg] in segments:
        lam[seg] = 1 - 2 * (omega & 1)
    return lam, first


def mobius_range(lo, hi):
    """int8 array of mu(n) for n in [lo, hi), segmented."""
    lo, hi = int(lo), int(hi)
    segments = _walk(lo, hi)
    out = np.empty(hi - lo, dtype=np.int8)
    for seg, omega, sq, _ in segments:
        out[seg] = np.where(sq, 1 - 2 * (omega & 1), 0)
    return out


def von_mangoldt_minus_one_range(lo, hi):
    """float64 array of Lambda(n) - 1 for n in [lo, hi); Lambda = log p
    exactly at prime powers p^k, zero elsewhere."""
    lo, hi = int(lo), int(hi)
    out = np.full(hi - lo, -1.0)
    flags = primality_range(lo, hi)
    idx = np.flatnonzero(flags)
    out[idx] += np.log((idx + lo).astype(np.float64))
    ps, pks = _prime_powers(primes_upto(math.isqrt(hi - 1)), hi)
    higher = (pks != ps) & (pks >= lo)
    out[pks[higher] - lo] = [math.log(p) - 1.0 for p in ps[higher].tolist()]
    return out


def primality_range(lo, hi):
    """Boolean primality for n in [lo, hi), segmented Eratosthenes."""
    lo, hi = int(lo), int(hi)
    _check_span(lo, hi)
    base = primes_upto(math.isqrt(hi - 1)).tolist()
    out = np.ones(hi - lo, dtype=bool)
    if lo <= 1:
        out[: 2 - lo] = False
    for a in range(lo, hi, DEFAULT_SEGMENT):
        seg = out[a - lo : a - lo + DEFAULT_SEGMENT]
        for p in base:
            if p * p >= a + len(seg):
                break
            first = max(p * p, ((a + p - 1) // p) * p)
            seg[first - a :: p] = False
    return out


def summatory_lambda(x):
    """Exact integer value of sum_{n <= x} lambda(n), streamed by segment."""
    x = int(x)
    if x < 1:
        return 0
    total = 0
    for _, omega, _, _ in _walk(1, x + 1, budget=math.inf):
        total += omega.size - 2 * int(np.count_nonzero(omega & 1))
    return total


def chebyshev_psi(x):
    """sum of log p over prime powers p^k <= x, with Lambda = log p exact."""
    x = int(x)
    if x < 2:
        return 0.0
    primes = primes_upto(x)
    ps, pks = _prime_powers(primes[primes <= math.isqrt(x)], x + 1)
    extra = [math.log(p) for p in ps[pks != ps].tolist()]
    return fsum(np.log(primes.astype(np.float64))) + math.fsum(extra)


def prime_reciprocal_sum(x):
    """sum of 1/p over primes p <= x, exactly rounded accumulation."""
    plist = primes_upto(int(x))
    if len(plist) == 0:
        return 0.0
    return fsum(1.0 / plist.astype(np.float64))


def squarefree_count(x):
    """#{n <= x : n squarefree}, via mu(d) floor(x/d^2) over d <= sqrt(x)."""
    x = int(x)
    if x < 1:
        return 0
    d_max = math.isqrt(x)
    if d_max < 2:
        return x
    mu = mobius_range(1, d_max + 1)
    total = 0
    for d in range(1, d_max + 1):
        m = int(mu[d - 1])
        if m:
            total += m * (x // (d * d))
    return total
