"""Segmented factor sieves and the elementary counting functions built on them.

The central object is FactorTable: smallest prime factor, prime-factor count
(with multiplicity), Liouville sign and Mobius value for every integer in a
half-open window [lo, hi). Everything else in the package that needs lambda,
mu or Lambda values at scale goes through the segmented passes here, and it
is the one home of factoring: trial division of a single integer, the primes
in a band (a, b] and the least prime factor above a floor.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .util import INT64_MAX, BudgetError, fsum

DEFAULT_SEGMENT = 1 << 18
SPAN_BUDGET = 1 << 26


@dataclass
class FactorTable:
    """Per-integer factor data on [lo, hi), n at index n - lo of each array."""

    lo: int
    hi: int
    spf: np.ndarray      # smallest prime factor, 0 for n = 1
    omega: np.ndarray    # number of prime factors with multiplicity
    lam: np.ndarray      # Liouville sign (-1)^omega, int8
    mu: np.ndarray       # Mobius value, int8


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
LEAST_WHEEL = 210  # 2 3 5 7: the least wheel prime dividing n is periodic mod 210
LOG_SCALE = 16  # the accumulator's high half sums round(LOG_SCALE log2 p) per hit
LOG_MARGIN = 40  # a prime cofactor is left where that sum is below floor(16 log2 n) - 40


def _hits(ps, pks):
    """int32 accumulator increment of each prime power pks of ps:
    (round(LOG_SCALE log2 p) << 16) | ([p^k = p^2] << 8) | 1."""
    logs = np.rint(LOG_SCALE * np.log2(ps.astype(np.float64))).astype(np.int32)
    return (logs << 16) | ((pks == ps * ps).astype(np.int32) << 8) | 1


def _wheel_pattern():
    """The accumulator on the residues 0..WHEEL-1 from the wheel powers 2, 4,
    8, 3, 9, 5 and 7."""
    ps, pks = np.array([2, 2, 2, 3, 3, 5, 7]), np.array([2, 4, 8, 3, 9, 5, 7])
    acc = np.zeros(WHEEL, dtype=np.int32)
    for pk, add in zip(pks.tolist(), _hits(ps, pks).tolist()):
        acc[::pk] += add
    return acc


_WHEEL_PATTERN = _wheel_pattern()


def _least_wheel():
    """The least wheel prime dividing n, on the residues mod LEAST_WHEEL,
    and INT64_MAX where there is none."""
    least = np.full(LEAST_WHEEL, INT64_MAX)
    for p in WHEEL_PRIMES[::-1]:
        least[::p] = p
    return least


def _tile(pattern, r0, size, out=None):
    """pattern[(r0 + i) % len(pattern)] for i in 0..size-1, in out (a fresh
    array when None) of exactly size entries."""
    if out is None:
        out = np.empty(size, dtype=pattern.dtype)
    period = np.roll(pattern, -r0)[:size]
    k = len(period)
    out[:k] = period
    while k < size:  # k stays a multiple of len(pattern)
        n = min(k, size - k)
        out[k : k + n] = out[:n]
        k += n
    return out


class _Buffers:
    """The arrays every segment of one walk, at most size integers long,
    reads or writes, so that no segment allocates them afresh: acc, and
    when spf is True, the least wheel prime dividing n tiled mod 210 and
    the offsets 0..size-1 that spf starts from."""

    def __init__(self, size, spf):
        self.acc = np.empty(size, dtype=np.int32)
        self.least = self.iota = None
        if spf:
            self.least = _tile(_least_wheel(), 0, size + LEAST_WHEEL)
            self.iota = np.arange(size, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _log_step(m):
    """The least n with floor(LOG_SCALE log2 n) >= m: the ceiling of
    2^(m/16), exact in integers."""
    root = math.isqrt(math.isqrt(math.isqrt(math.isqrt(1 << m))))  # floor(2^(m/16))
    return root + (root**LOG_SCALE != 1 << m)


def _log_steps(lo, hi):
    """[(a, m)] with m = floor(LOG_SCALE log2 n) on n in [lo + a, next a):
    the steps of the threshold, exact in integers since m is the bit length
    of n^16 less one."""
    m_lo = (lo**LOG_SCALE).bit_length() - 1
    m_hi = ((hi - 1) ** LOG_SCALE).bit_length() - 1
    return [(0, m_lo)] + [(_log_step(m) - lo, m) for m in range(m_lo + 1, m_hi + 1)]


def _sieve_segment(lo, hi, powers, buffers=None, spf=None):
    """acc on one segment [lo, hi), and spf filled when given.

    powers is _prime_powers(base, hi') for base primes covering sqrt(hi-1)
    and any hi' >= hi: one list serves every segment of a span. acc is one
    int32 per n: every hit of a prime power p^k dividing n, over the primes
    p with p^2 < hi and 2, 3, 5 and 7, adds
        (round(16 log2 p) << 16) | ([k = 2] << 8) | 1,
    and the cofactor test below adds 1 more where a prime is left over. So
    the low byte is Omega(n), and lambda(n) = 1 - 2 (acc & 1); the next byte
    counts the primes whose square divides n, so n is square-free exactly
    when acc & 0xFF00 is 0. spf, when not None, is the caller's int64 array
    of hi - lo entries, filled with the smallest prime factor of n (0 for
    n = 1). acc lives in buffers, a _Buffers for spf and at least hi - lo
    integers (fresh ones when None). No division runs per prime power. The
    powers fall in three parts:
    - wheel: the powers dividing WHEEL are periodic mod WHEEL, so their
      part of acc is tiled from one precomputed period (Pritchard's
      pre-sieve), and they are masked out of powers;
    - dense: every other power up to a cut of len/256 gets one strided add;
    - scatter: the powers above the cut hit few n each, so _scatter builds
      all their hit indices at once and adds them in one call.

    The cofactor test. What the hits leave of n = s c is c = 1 or a single
    prime c > max(7, sqrt(hi-1)), so s < c. The high half A of acc sums
    h = Omega(s) hits, each within 1/2 of 16 log2 p, so
    |A - 16 log2 s| <= h/2 with h <= log2 s. With m = floor(16 log2 n) and
    the margin LOG_MARGIN = 40, the prime c is there exactly when
    A < m - 40:
    - c = 1: h <= 63 since n < 2^63, so A >= 16 log2 n - 31.5 > m - 40;
    - c prime: h < log2 c, so A < 16 log2 n - 15.5 log2 c
      <= m + 1 - 15.5 log2 11 < m - 52.
    Any margin in (31.5, 52.6) would do. (A Pomerance-style scaled-log
    sieve, made exact by the gap between s and c.) m is a step function of
    n, so the test is one comparison of acc with (m - 40) << 16 per step
    of _log_steps, or with one array of them where the steps are many.

    spf starts at n and takes the minimum with the least wheel prime, tiled
    mod 210, and with every other base prime, strided or scattered as
    above; whatever is still n is then 1 (set to 0) or a prime.
    """
    size = hi - lo
    if buffers is None:
        buffers = _Buffers(size, spf is not None)
    acc = _tile(_WHEEL_PATTERN, lo % WHEEL, size, buffers.acc[:size])
    ps, pks = powers
    reached = (pks < hi) & (ps * ps < hi) & (WHEEL % pks != 0)
    ps, pks = ps[reached], pks[reached]
    if spf is not None:
        np.add(buffers.iota[:size], lo, out=spf)
        r0 = lo % LEAST_WHEEL
        np.minimum(spf, buffers.least[r0 : r0 + size], out=spf)
    # one strided call costs about as much as a few hundred scattered hits
    adds = _hits(ps, pks)
    dense = pks <= size >> 8
    _scatter(lo, size, ps[~dense], pks[~dense], adds[~dense], acc, spf)
    for p, pk, add in zip(ps[dense].tolist(), pks[dense].tolist(), adds[dense].tolist()):
        s = -lo % pk
        hits = acc[s::pk]
        np.add(hits, add, out=hits)  # in place: += would also copy the view back
        if spf is not None and pk == p:
            hits = spf[s::p]
            np.minimum(hits, p, out=hits)
    starts, ms = zip(*_log_steps(lo, hi))
    limits = [(m - LOG_MARGIN) << 16 for m in ms]
    # a step costs about as much as comparing 4096 integers with an array
    if len(limits) * 4096 <= size:
        for a, b, limit in zip(starts, starts[1:] + (size,), limits):
            part = acc[a:b]
            np.add(part, part < limit, out=part)
    else:
        limits = np.repeat(np.array(limits, dtype=np.int32), np.diff(starts + (size,)))
        np.add(acc, acc < limits, out=acc)
    if spf is not None and lo == 1:
        spf[0] = 0
    return acc


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


def _scatter(lo, size, ps, pks, adds, acc, spf):
    """Add the hits of the prime powers pks of ps on [lo, lo + size) into acc
    in one call, adds being their increments, and when spf is not None,
    take its minimum with every p at the hits of k = 1. ps and pks are
    ordered as _prime_powers orders them.

    Every hit index comes from one arange: the hits of a power p^k with
    start s and edges[j] hits before it are s + p^k (i - edges[j])."""
    starts = -lo % pks
    counts = (size - 1 - starts) // pks + 1
    hit = counts > 0
    ps, pks, adds, starts, counts = ps[hit], pks[hit], adds[hit], starts[hit], counts[hit]
    if not ps.size:
        return
    edges = np.zeros(len(ps) + 1, dtype=np.int64)
    np.cumsum(counts, out=edges[1:])
    idx = np.arange(edges[-1])
    idx *= np.repeat(pks, counts)
    idx += np.repeat(starts - pks * edges[:-1], counts)
    np.add.at(acc, idx, np.repeat(adds, counts))
    if spf is not None:
        k1 = int(np.count_nonzero(pks == ps))
        np.minimum.at(spf, idx[: edges[k1]], np.repeat(ps[:k1], counts[:k1]))


def _walk(lo, hi, segment_len=None, budget=SPAN_BUDGET, spf=None):
    """(seg, acc) for each segment of [lo, hi) in turn: seg its slice of
    [lo, hi) and acc _sieve_segment's accumulator.

    The span check, base primes, _prime_powers and the _Buffers run once,
    when _walk is called, not on the first next(), so callers allocate
    after the check. Segments hold segment_len integers, DEFAULT_SEGMENT
    when None. acc is one buffer that every segment overwrites, so callers
    read it before the next; spf, when given, is the int64 output over
    [lo, hi) whose slices the segments fill with smallest prime factors."""
    _check_span(lo, hi, budget)
    step = min(DEFAULT_SEGMENT if segment_len is None else segment_len, hi - lo)
    powers = _prime_powers(primes_upto(math.isqrt(hi - 1)), hi)
    buffers = _Buffers(step, spf is not None)
    bounds = ((a, min(a + step, hi)) for a in range(lo, hi, step))
    return ((slice(a - lo, b - lo),
             _sieve_segment(a, b, powers, buffers, None if spf is None else spf[a - lo : b - lo]))
            for a, b in bounds)


def _lam(acc, out):
    """lambda(n) = 1 - 2 (acc & 1) into the int8 array out."""
    parity = acc.astype(np.int8)  # the low byte, Omega mod 256
    np.bitwise_and(parity, 1, out=parity)
    np.multiply(parity, -2, out=out)
    np.add(out, 1, out=out)


def _squarefree(acc):
    """True where no prime square divides n."""
    return np.bitwise_and(acc, 0xFF00) == 0


def build_sieve(lo, hi, segment_len=None):
    """FactorTable over [lo, hi), processed in segments of segment_len
    (DEFAULT_SEGMENT when None). Raises BudgetError when the span exceeds
    the memory budget and OverflowError when hi does not fit the 64-bit
    invariants."""
    lo, hi = int(lo), int(hi)
    _check_span(lo, hi)  # before spf, which the walk fills
    spf = np.empty(hi - lo, dtype=np.int64)
    segments = _walk(lo, hi, segment_len, spf=spf)
    omega = np.empty(hi - lo, dtype=np.int16)
    lam = np.empty(hi - lo, dtype=np.int8)
    mu = np.empty(hi - lo, dtype=np.int8)
    for seg, acc in segments:
        np.bitwise_and(acc, 0xFF, out=omega[seg], casting="unsafe")
        _lam(acc, lam[seg])
        np.multiply(lam[seg], _squarefree(acc), out=mu[seg])
    return FactorTable(lo, hi, spf, omega, lam, mu)


def _stream(lo, hi, mobius=False, budget=SPAN_BUDGET):
    """values(a, b): a fresh int8 array of lambda(n), or of mu(n) when mobius
    is True, for n in [a, b), where the pieces [a, b) run through [lo, hi)
    in order, each starting where the last stopped. One _walk over [lo, hi)
    serves every piece, so the span is checked against budget when _stream
    is called and the base primes, prime powers and buffers are built once;
    a piece may straddle the walk's segments, and a segment its pieces."""
    lo, hi = int(lo), int(hi)
    segments = _walk(lo, hi, budget=budget)
    at, seg_lo, seg_hi, acc = lo, lo, lo, None  # next n to give; the segment sieved

    def values(a, b):
        nonlocal at, seg_lo, seg_hi, acc
        a, b = int(a), int(b)
        if a != at or not a <= b <= hi:
            raise ValueError("piece [%d, %d) does not follow %d within [%d, %d)"
                             % (a, b, at, lo, hi))
        out = np.empty(b - a, dtype=np.int8)
        while at < b:
            if at == seg_hi:
                seg, acc = next(segments)
                seg_lo, seg_hi = lo + seg.start, lo + seg.stop
            stop = min(b, seg_hi)
            part, piece = acc[at - seg_lo : stop - seg_lo], out[at - a : stop - a]
            _lam(part, piece)
            if mobius:
                np.multiply(piece, _squarefree(part), out=piece)
            at = stop
        return out
    return values


def liouville_range(lo, hi):
    """int8 array of lambda(n) for n in [lo, hi); lean path for bulk scans."""
    return _stream(lo, hi)(lo, hi)


def least_factor_range(hi, pmin):
    """(lam, first) on [1, hi): lam(n) as int8 and the least prime factor
    of n that is >= pmin, 0 when there is none.

    One spf walk gives lam and spf, and first is spf where spf >= pmin.
    Elsewhere each pass divides the cofactor m of n by its smallest prime
    below pmin, read from the array, until the entry of m is 0 or >= pmin:
    its spf, or its first when m was done first, is then n's answer. Each
    segment is stripped as soon as it is sieved, since every m < n is
    already there: at most log2 hi passes, each over the n of the segment
    still left."""
    hi = int(hi)
    _check_span(1, hi)  # before first, which the walk fills
    first = np.empty(hi - 1, dtype=np.int64)
    segments = _walk(1, hi, spf=first)
    lam = np.empty(hi - 1, dtype=np.int8)
    for seg, acc in segments:
        _lam(acc, lam[seg])
        i = np.flatnonzero(first[seg] < pmin)
        i += seg.start  # n = i + 1
        m = i + 1
        while i.size:
            v = first[m - 1]
            done = (v == 0) | (v >= pmin)
            first[i[done]] = v[done]
            i, m = i[~done], m[~done] // v[~done]
    return lam, first


def mobius_range(lo, hi):
    """int8 array of mu(n) for n in [lo, hi), segmented."""
    return _stream(lo, hi, mobius=True)(lo, hi)


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
    """Exact integer value of L(x) = sum_{n <= x} lambda(n).

    lambda = mu * 1_squares, so L(x) = sum_{d <= sqrt(x)} M(x // d^2), with
    M the Mertens function; every argument is some x // m. The values
    M(v) for v <= u = x^(2/3) are one cumulative sum of mobius_range(1, u],
    and M(x // k) for the k <= x // (u + 1) left come in increasing order
    of x // k from M(v) = 1 - sum_{j >= 2} M(v // j), with the j above
    sqrt(v) grouped by quotient: the simple O(x^(2/3)) form of
    Deleglise-Rivat. It holds about 5 bytes per v <= u. Raises
    OverflowError when x + 1 does not fit the 64-bit sieve invariants and
    BudgetError when u exceeds SPAN_BUDGET (x above about 5.5e11)."""
    x = int(x)
    if x < 1:
        return 0
    _check_span(1, x + 1, budget=math.inf)
    u = min(max(math.isqrt(x), round(x ** (2 / 3))), x)
    small = np.zeros(u + 1, dtype=np.int32)  # small[v] = M(v), |M(v)| <= v < 2^31
    np.cumsum(mobius_range(1, u + 1), dtype=np.int32, out=small[1:])
    k_max = x // (u + 1)
    large = np.zeros(k_max + 1, dtype=np.int64)  # large[k] = M(x // k)
    for k in range(k_max, 0, -1):
        v = x // k
        s = math.isqrt(v)
        # j = 2..s: v // j = x // (kj) is a large value while kj <= k_max
        kj = k * np.arange(2, s + 1, dtype=np.int64)
        inner = kj <= k_max
        total = int(large[kj[inner]].sum()) + int(small[x // kj[~inner]].sum())
        # j > s: each quotient q <= v // (s + 1) for the j in (v/(q+1), v/q]
        q = np.arange(1, v // (s + 1) + 1, dtype=np.int64)
        total += int(np.dot(small[q], v // q - np.maximum(v // (q + 1), s)))
        large[k] = 1 - total
    d2 = np.arange(1, math.isqrt(x) + 1, dtype=np.int64) ** 2
    inner = d2 <= k_max
    return int(large[d2[inner]].sum()) + int(small[x // d2[~inner]].sum())


def prime_sums(x):
    """(psi(x), sum of 1/p over primes p <= x) from one primes_upto(x):
    psi sums log p over the prime powers p^k <= x, with Lambda = log p
    exact, and both sums are exactly rounded accumulations."""
    x = int(x)
    if x < 2:
        return 0.0, 0.0
    primes = primes_upto(x)
    ps, pks = _prime_powers(primes[primes <= math.isqrt(x)], x + 1)
    extra = [math.log(p) for p in ps[pks != ps].tolist()]
    as_float = primes.astype(np.float64)
    psi = fsum(np.log(as_float)) + math.fsum(extra)
    return psi, fsum(np.divide(1.0, as_float, out=as_float))


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
