"""Log-weighted sign statistics: joint sign/residue distributions, entropy
and mutual information in nats, tail and concentration checks, the pair
functional F with its independent-average reduction, and logarithmically
weighted consecutive-sign sums with their envelopes.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import arith_core
from .util import BudgetError, ExactSum, PreconditionError, fsum

KEY_BUDGET = 2**62
E_CUBE = math.exp(math.e)  # h must exceed this for log log log h > 0


# ------------------------------------------------------ model and joints

def _support_start(x, w):
    """Least integer n > x/w, in exact integer arithmetic when w is an
    integer."""
    return x // int(w) + 1 if float(w).is_integer() else math.floor(x / w) + 1


def _pack_signs(lam, start, count, H):
    """Sign patterns of H consecutive values packed into int64: bit j of
    entry i is set iff lam[start + i + j] < 0, for i < count and j < H.

    A pattern of width 2h is two of width h side by side, so doubling builds
    width H in ceil(log2 H) shifted ORs; the last one overlaps when H is not
    a power of two, on bits that agree. The ORs run in the narrowest
    unsigned dtype that holds H bits, widened once at the end."""
    dtype = np.uint16 if H <= 16 else np.uint32 if H <= 32 else np.uint64
    bits = (lam[start : start + count + H - 1] < 0).astype(dtype)
    h = 1
    while 2 * h <= H:
        bits[: len(bits) - h] |= bits[h:] << h
        h *= 2
    if h < H:
        bits[:count] |= bits[H - h : H - h + count] << (H - h)
    return bits[:count].astype(np.int64)


def _sorted_runs(keys, width):
    """(distinct keys ascending, order, run) for an int64 array of keys below
    2^width: order lists the positions sorted by key and then by position,
    and run[k] is the index of keys[order[k]] among the distinct keys. So
    np.bincount(run, weights=w[order]) adds each key's weights in order of
    position, the additions of a bincount over np.unique's inverse.

    Each key is packed above its position, in b bits, and the packed values
    sorted by one np.sort. A key wider than 63 - b bits takes two such sorts
    (LSD): by its low 63 - b bits, then by its high digit above its place in
    that order, which fits since width <= 62 and b <= 32."""
    count = len(keys)
    b = count.bit_length()
    mask = (1 << b) - 1
    pos = np.arange(count, dtype=np.int64)
    if width + b <= 63:
        packed = keys << b
        packed |= pos
        packed.sort()
        order = packed & mask
        packed >>= b  # the keys in sorted order
    else:
        low = 63 - b
        packed = (keys & ((1 << low) - 1)) << b
        packed |= pos
        packed.sort()
        order = packed & mask
        packed = keys[order] >> low << b
        packed |= pos
        packed.sort()
        order = order[packed & mask]
        packed = keys[order]
    new = np.empty(count, dtype=bool)  # where a run of one key starts
    new[:1] = True
    np.not_equal(packed[1:], packed[:-1], out=new[1:])
    run = new.astype(np.intp)
    run[:1] = 0
    np.cumsum(run, out=run)
    return packed[new], order, run


def _mixed_radix(ns, primes):
    """Residue index sum_k (n mod p_k) prod_{l < k} p_l of each n in ns."""
    y = np.zeros(len(ns), dtype=np.int64)
    radix = 1
    for p in primes:
        y += radix * (ns % p)
        radix *= p
    return y


@dataclass
class LogWeightedModel:
    """Random integer N on (x/w, x] with mass proportional to 1/n."""

    x: int
    w: float
    lo: int = field(init=False)

    def __post_init__(self):
        self.x = int(self.x)
        if not 1 <= self.w <= self.x:
            raise PreconditionError("need 1 <= w <= x")
        self.lo = _support_start(self.x, self.w)

    @functools.cached_property
    def L(self):
        """The normalizer: sum of 1/n over the support, summed when first
        read (the joint laws renormalize their own masses)."""
        if self.lo > self.x:
            return 0.0
        return fsum(1.0 / np.arange(self.lo, self.x + 1, dtype=np.float64))

    @property
    def n_count(self):
        return max(0, self.x - self.lo + 1)


def band_primes(H, epsilon):
    """Primes in (epsilon H / 2, epsilon H]."""
    return arith_core.primes_in(epsilon * H / 2.0, epsilon * H)


@dataclass
class JointDistribution:
    """Sparse joint law of (sign pattern, residue pattern).

    Keys pack the sign bits above a mixed-radix residue index; masses are
    renormalized compensated sums of 1/n. Marginals are cached.
    """

    H: int
    primes: tuple
    omega: int
    keys: np.ndarray
    masses: np.ndarray
    x: int
    w: float
    _xm: tuple = field(default=None, repr=False)
    _ym: tuple = field(default=None, repr=False)

    def _marginal(self, values, space):
        """(distinct values ascending, their masses) for values in
        [0, space). Both routes add the masses in key order: a dense count
        when the space is no longer than the keys, else _sorted_runs."""
        if space <= len(values):
            m = np.bincount(values, weights=self.masses, minlength=space)
            uniq = np.flatnonzero(m)  # every key carries positive mass
            return uniq, m[uniq]
        uniq, order, run = _sorted_runs(values, (space - 1).bit_length())
        return uniq, np.bincount(run, weights=self.masses[order])

    @property
    def x_marginal(self):
        if self._xm is None:
            self._xm = self._marginal(self.keys // self.omega, 1 << self.H)
        return self._xm

    @property
    def y_marginal(self):
        if self._ym is None:
            self._ym = self._marginal(self.keys % self.omega, self.omega)
        return self._ym

    def y_dense(self):
        """Residue-marginal masses as a dense length-omega vector."""
        ys, m = self.y_marginal
        out = np.zeros(self.omega, dtype=np.float64)
        out[ys] = m
        return out

    def y_residues(self, yindex):
        """Decode a mixed-radix residue index to one residue per prime."""
        out = []
        rem = int(yindex)
        for p in self.primes:
            out.append(rem % int(p))
            rem //= int(p)
        return out


def _entropy_of(masses):
    m = np.asarray(masses, dtype=np.float64)
    pos = m[m > 0]
    return -fsum(pos * np.log(pos))


def entropy(dist):
    """-sum p log p in nats, with 0 log 0 = 0.

    Accepts any array-like of masses; they must be nonnegative and sum
    to 1 within 1e-9."""
    m = np.asarray(dist, dtype=np.float64).ravel()
    if np.any(m < 0):
        raise ValueError("negative mass")
    total = fsum(m)
    if abs(total - 1.0) > 1e-9:
        raise ValueError("masses sum to %r, not 1" % total)
    return _entropy_of(m)


def joint_entropy(joint):
    return _entropy_of(joint.masses)


def entropy_x(joint):
    return _entropy_of(joint.x_marginal[1])


def entropy_y(joint):
    return _entropy_of(joint.y_marginal[1])


def conditional_entropy(joint):
    """Entropy of the sign pattern given the residue pattern, summed
    directly as -sum m log(m / P(y)); regrouping it as the joint minus
    the residue marginal is the identity the tests pin down."""
    ys = joint.keys % joint.omega
    yu, ym = joint.y_marginal
    py = ym[np.searchsorted(yu, ys)]
    m = joint.masses
    pos = m > 0
    return -fsum(m[pos] * np.log(m[pos] / py[pos]))


def mutual_information(joint):
    return entropy_x(joint) + entropy_y(joint) - joint_entropy(joint)


def _key_space(H, epsilon):
    """(band primes, their product omega, whether 2^H omega fits KEY_BUDGET)."""
    primes = band_primes(H, epsilon)
    omega = math.prod(int(p) for p in primes)
    return primes, omega, float(omega) * float(2**H) <= KEY_BUDGET


def check_residue_space(H, epsilon):
    """Check the residue space the dense residue marginal (y_dense, one float
    per class mod omega) spans, before the joint is built: PreconditionError
    when the band holds no prime (omega = 1 leaves log omega = 0), BudgetError
    when omega exceeds arith_core.SPAN_BUDGET."""
    primes, omega, _ = _key_space(H, epsilon)
    if len(primes) == 0:
        raise PreconditionError("no prime in (epsilon H / 2, epsilon H]")
    if omega > arith_core.SPAN_BUDGET:
        raise BudgetError("residue space %d exceeds budget %d" % (omega, arith_core.SPAN_BUDGET))


def build_joint(model, H, epsilon, lam=None):
    """Exact joint law of H consecutive signs past N and N's residues at
    the band primes, enumerated over the whole support (no sampling).
    lam, when given, holds lambda(n) for lo < n <= x + H at least, lam[i] =
    lambda(lo + 1 + i); otherwise that span is sieved here.

    The support is walked in 2^21-integer chunks. A key space of 2^H omega
    no larger than the support is counted densely, one bincount per chunk
    added in order; a larger one is grouped by _sorted_runs per chunk, and
    the chunk groups are merged by _sorted_runs again only when there are
    several. Either way each key's mass adds its 1/n in increasing n within
    a chunk and the chunk totals in chunk order, so both routes give the
    same bits."""
    H = int(H)
    if H < 1:
        raise ValueError("H must be positive")
    if model.n_count == 0:
        raise ValueError("model support is empty")
    primes, omega, fits = _key_space(H, epsilon)
    if not fits:
        raise BudgetError("2^H * |Omega| = 2^%d * %d exceeds key budget" % (H, omega))
    primes = tuple(int(p) for p in primes)
    lo, x = model.lo, model.x
    if lam is None:
        lam = arith_core.liouville_range(lo + 1, x + H + 1)
    chunk = 1 << 21
    # the residue index has period omega in n: one period, when it is no
    # longer than a chunk and the support, tiles every chunk
    period = None
    if omega <= min(chunk, model.n_count):
        period = _mixed_radix(np.arange(omega, dtype=np.int64), primes)
    space = omega << H
    width = (space - 1).bit_length()
    total = np.zeros(space) if space <= model.n_count else None
    key_parts = []
    wt_parts = []
    for a in range(lo, x + 1, chunk):
        b = min(a + chunk, x + 1)
        keys = _pack_signs(lam, a - lo, b - a, H)
        keys *= omega
        if period is None:
            keys += _mixed_radix(np.arange(a, b, dtype=np.int64), primes)
        else:
            keys += arith_core._tile(period, a % omega, b - a)
        if total is not None:
            wts = 1.0 / np.arange(a, b, dtype=np.float64)
            total += np.bincount(keys, weights=wts, minlength=space)
        else:
            uniq, order, run = _sorted_runs(keys, width)
            key_parts.append(uniq)
            wt_parts.append(np.bincount(run, weights=1.0 / (order + a)))  # 1/n, n exact
    if total is not None:
        keys = np.flatnonzero(total)  # every n adds a positive 1/n
        masses = total[keys]
    elif len(key_parts) == 1:
        keys, masses = key_parts[0], wt_parts[0]
    else:
        keys, order, run = _sorted_runs(np.concatenate(key_parts), width)
        masses = np.bincount(run, weights=np.concatenate(wt_parts)[order])
    masses /= fsum(masses)  # total mass exactly 1 to rounding
    return JointDistribution(H, primes, omega, keys, masses, model.x, float(model.w))


def y_uniformity(joint):
    """(max deviation of the residue marginal from uniform, 10 w / x)."""
    dev = float(np.max(np.abs(joint.y_dense() - 1.0 / joint.omega)))
    return dev, 10.0 * joint.w / joint.x


# ------------------------------------------------------ the F functional

def _sign_columns(bits, j):
    return 1 - 2 * ((bits >> (j - 1)) & 1)


def expectation_F(joint):
    """E F(signs, residues) under the joint law, vectorized over keys."""
    bits = joint.keys // joint.omega
    y = joint.keys % joint.omega
    parts = []
    div = 1
    for p in joint.primes:
        yp = (y // div) % p
        div *= p
        for j in range(1, joint.H - p + 1):
            s = (_sign_columns(bits, j) * _sign_columns(bits, j + p)).astype(np.float64)
            mask = yp == (-j) % p
            parts.append(float(np.dot(joint.masses[mask], s[mask])))
    return math.fsum(parts)


def expectation_F_independent(joint, method="g"):
    """E F(signs, residues*) with residues* uniform and independent.

    method 'g' collapses the uniform average in closed form, weighting the
    pair sum at shift p by 1/p; 'uniform' averages over every residue
    pattern explicitly: for each one, the integer pair products of every
    sign pattern of the x-marginal go into one exact int64 vector."""
    bits = joint.keys // joint.omega
    if method == "g":
        parts = []
        for p in joint.primes:
            for j in range(1, joint.H - p + 1):
                s = (_sign_columns(bits, j) * _sign_columns(bits, j + p)).astype(np.float64)
                parts.append(float(np.dot(joint.masses, s)) / p)
        return math.fsum(parts)
    if method != "uniform":
        raise ValueError("method must be 'g' or 'uniform'")
    xs, xmass = joint.x_marginal
    if len(xs) * joint.omega > 1 << 22:
        raise BudgetError("explicit uniform average too large")
    signs = [_sign_columns(xs, j) for j in range(1, joint.H + 1)]
    acc = np.zeros(len(xs), dtype=np.int64)
    for yidx in range(joint.omega):
        for p, r in zip(joint.primes, joint.y_residues(yidx)):
            for j in range(1, joint.H - p + 1):
                if (r + j) % p == 0:
                    acc += signs[j - 1] * signs[j + p - 1]
    return math.fsum(xmass * acc / joint.omega)


# ------------------------------------------------------ weighted pair sums

def log_chowla_sum(x, w):
    """Exact sum of lambda(n) lambda(n+1) / n over x/w < n <= x, streamed in
    arith_core.DEFAULT_SEGMENT-long pieces into one exact accumulator after
    the whole span is checked against the sieve budget. The pieces read
    lambda from one arith_core._stream over the span."""
    x = int(x)
    if not 1 <= w <= x:
        raise PreconditionError("need 1 <= w <= x")
    lo = _support_start(x, w)
    if lo > x:
        return 0.0
    arith_core._check_span(lo, x + 2)
    values = arith_core._stream(lo, x + 2)
    acc = ExactSum()
    # one buffer of terms for every piece: fresh 2 MiB arrays per piece
    # cost a page fault per 4 KiB
    offsets = np.arange(min(arith_core.DEFAULT_SEGMENT, x + 1 - lo), dtype=np.float64)
    terms = np.empty_like(offsets)
    lam = values(lo, lo + 1)  # lambda(lo); each piece carries its last value over
    for a in range(lo, x + 1, arith_core.DEFAULT_SEGMENT):
        b = min(a + arith_core.DEFAULT_SEGMENT, x + 1)
        lam = np.concatenate((lam[-1:], values(a + 1, b + 1)))  # int8 on [a, b]
        n = np.add(offsets[:b - a], a, out=terms[:b - a])  # exact: n < 2^53
        acc.add(np.divide(lam[:-1] * lam[1:], n, out=n))
    return acc.value()


def band_divisor_sum(x, w, K0, K1):
    """Sum over primes K0 < p <= K1 and multiples p | n in (x/w, x] of
    lambda(n) lambda(n+p) / n."""
    x = int(x)
    lo = _support_start(x, w)
    if lo > x:
        return 0.0
    plist = arith_core.primes_in(K0, K1)
    if len(plist) == 0:
        return 0.0
    lam = arith_core.liouville_range(lo, x + int(plist[-1]) + 1).astype(np.float64)
    parts = []
    for p in plist:
        p = int(p)
        m0 = ((lo + p - 1) // p) * p
        ns = np.arange(m0, x + 1, p, dtype=np.int64)
        if len(ns) == 0:
            parts.append(0.0)
            continue
        idx = ns - lo
        parts.append(fsum(lam[idx] * lam[idx + p] / ns.astype(np.float64)))
    return math.fsum(parts)


def suma_esperanza_residual(x, w, H, epsilon):
    """|band divisor pair sum - (L/H) E F|; the stated bound is
    20 eps log w / log H.

    The left side is the exact double sum over band primes and their
    multiples in the support; the right side rereads it as an expectation
    of F under the joint law."""
    if H > x / w:
        raise ValueError("need H <= x/w")
    if epsilon < max(1.0 / math.log(w), 1.0 / math.sqrt(H)):
        raise ValueError("epsilon below admissible floor")
    model = LogWeightedModel(x, w)
    lhs = band_divisor_sum(x, w, epsilon * H / 2.0, epsilon * H)
    joint = build_joint(model, H, epsilon)
    rhs = (model.L / H) * expectation_F(joint)
    return abs(lhs - rhs)


def divisibility_trick_residual(x, w, K0, K1):
    """|consecutive-pair log sum - (1/l) band divisor pair sum| where
    l is the reciprocal sum of the band primes; the stated bound is
    5 log(K1) / l."""
    plist = arith_core.primes_in(K0, K1)
    if len(plist) == 0:
        raise PreconditionError("no prime in (K0, K1]")
    ell = fsum(1.0 / plist.astype(np.float64))
    lhs = log_chowla_sum(x, w)
    rhs = band_divisor_sum(x, w, K0, K1) / ell
    return abs(lhs - rhs)


# ------------------------------------------------------ tail and concentration

def hoeffding_tail_check(n, C, s, trials, seed=0):
    """(empirical P(|S| >= s) for S a sum of n uniform[-C, C] draws,
    closed-form tail envelope 2 exp(-s^2 / (2 C^2 n))). The empirical
    tail should stay under the envelope plus three standard errors,
    3 sqrt(envelope / trials).

    Sampling is chunked with per-chunk child seeds; the chunk rule is a
    fixed function of n, so a given (n, trials, seed) always reproduces."""
    n, trials = int(n), int(trials)
    if trials < 10**3:
        raise ValueError("trials must be at least 1e3")
    bound = 2.0 * math.exp(-(s * s) / (2.0 * C * C * n))
    chunk = max(1, (1 << 24) // n)
    hits = 0
    done = 0
    idx = 0
    while done < trials:
        take = min(chunk, trials - done)
        rng = np.random.default_rng([int(seed), idx])
        draws = rng.uniform(-C, C, size=(take, n))
        S = draws.sum(axis=1)
        hits += int(np.count_nonzero(np.abs(S) >= s))
        done += take
        idx += 1
    return hits / trials, bound


def concentration_check(dist, E, M):
    """True iff P(E) <= 2/M for a high-entropy distribution.

    Takes delta = max(1 - H/log k, 1/log k), the least delta >= 1/log k
    with entropy H >= (1 - delta) log k, and so the largest event size cap
    k^(1 - M delta); an event above it, or outside the k outcomes, raises
    PreconditionError. A False return is a genuine counterexample."""
    m = np.asarray(dist, dtype=np.float64)
    k = len(m)
    if k < 2:
        raise PreconditionError("need at least 2 outcomes")
    if M <= 0:
        raise PreconditionError("M must be positive")
    logk = math.log(k)
    delta = max(1.0 - entropy(m) / logk, 1.0 / logk)
    Eidx = np.unique(np.asarray(E, dtype=np.int64))
    if len(Eidx) and (Eidx[0] < 0 or Eidx[-1] >= k):
        raise PreconditionError("event indices out of range")
    if len(Eidx) > k ** (1.0 - M * delta):
        raise PreconditionError("event too large for the stated size cap")
    pE = fsum(m[Eidx]) if len(Eidx) else 0.0
    return pE <= 2.0 / M + 1e-12


# ------------------------------------------------------ decrement trace

def _next_block_length(h):
    """h times floor(4 log h log log log h), clamped below at doubling
    (the multiplier is nonpositive until h is approximately 56)."""
    if h > E_CUBE:
        mult = math.floor(4.0 * math.log(h) * math.log(math.log(math.log(h))))
    else:
        mult = 0
    return max(2, mult) * h


@dataclass
class DecrementTrace:
    steps: list            # (h, entropy rate, information rate)
    witness_step: int      # first step with I/h under 1/(log h log3 h); -1 if none
    exhausted: bool        # stopped early on the state budget


def decrement_trace(x, w, epsilon, H0, max_steps):
    """Entropy and information rates along the blowup sequence of block
    lengths, with exact joints at every step; stops early (flagged) when
    the packed state would overflow. lambda is sieved once, to x plus the
    longest admissible block, for every joint."""
    model = LogWeightedModel(x, w)
    h = int(H0)
    if h < 2:
        raise ValueError("H0 must be at least 2")
    hs = []
    exhausted = False
    for _ in range(int(max_steps)):
        if h > 32 or not _key_space(h, epsilon)[2]:
            exhausted = True
            break
        hs.append(h)
        h = _next_block_length(h)
    lam = arith_core.liouville_range(model.lo + 1, model.x + hs[-1] + 1) if hs else None
    steps = []
    witness = -1
    for j, h in enumerate(hs):
        joint = build_joint(model, h, epsilon, lam)
        Hx = entropy_x(joint)
        info = mutual_information(joint)
        steps.append((h, Hx / h, info / h))
        if witness < 0 and h > E_CUBE:
            threshold = 1.0 / (math.log(h) * math.log(math.log(math.log(h))))
            if info / h <= threshold:
                witness = j
    return DecrementTrace(steps, witness, exhausted)


def divergence_sequence(h1, target=100.0, max_steps=10**4):
    """(smallest J whose partial sum of 1/(log h_j log3 h_j) reaches the
    target, the partial sums). Terms are counted only where log3 is
    positive; block lengths grow as exact big integers. The stated bound
    is log J <= 10 log2(h1)^2."""
    h = int(h1)
    if h < 15:
        raise ValueError("h1 must be at least 15")
    partial = []
    s = 0.0
    for j in range(1, int(max_steps) + 1):
        logh = math.log(h)
        if h > E_CUBE:
            s += 1.0 / (logh * math.log(math.log(logh)))
        partial.append(s)
        if s >= target:
            return j, partial
        h = _next_block_length(h)
    raise BudgetError("target %g unreached after %d steps" % (target, max_steps))


# ------------------------------------------------------ sign blocks

def sign_block_distribution(model, H, offset=0):
    """Dense mass vector over the 2^H sign patterns of the block at
    distance offset past N."""
    H, offset = int(H), int(offset)
    if H > 24:
        raise BudgetError("dense block length capped at 24")
    if model.n_count == 0:
        raise ValueError("model support is empty")
    lo, x = model.lo, model.x
    lam = arith_core.liouville_range(lo + offset + 1, x + offset + H + 1)
    bits = _pack_signs(lam, 0, model.n_count, H)
    ns = np.arange(lo, x + 1, dtype=np.float64)
    masses = np.bincount(bits, weights=1.0 / ns, minlength=2**H)
    return masses / fsum(masses)
