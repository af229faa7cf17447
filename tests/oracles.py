"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: trial division, direct double loops,
brute-force quadrature. None of it imports the package under test.
"""

import cmath
import functools
import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------- factoring

def trial_factor(n):
    """Factor n >= 1 by trial division. Returns sorted list of (p, e)."""
    assert n >= 1
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def big_omega(n):
    return sum(e for _, e in trial_factor(n)) if n > 1 else 0


def liouville(n):
    return -1 if big_omega(n) % 2 else 1


def mobius(n):
    fac = trial_factor(n) if n > 1 else []
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def spf(n):
    assert n >= 2
    fac = trial_factor(n)
    return fac[0][0]


def is_prime(n):
    return n >= 2 and trial_factor(n) == [(n, 1)]


def primes_upto(x):
    return [n for n in range(2, x + 1) if is_prime(n)]


def batch_trial_factor(ns):
    """Trial-divide an int64 array of candidates, primes in increasing order.

    Returns (spf, omega, squarefree) arrays. Same per-n logic as
    trial_factor, vectorized so large samples fit test budgets.
    """
    ns = np.asarray(ns, dtype=np.int64)
    assert ns.min() >= 1
    cof = ns.copy()
    spf_arr = np.zeros_like(ns)
    omega = np.zeros(len(ns), dtype=np.int64)
    sqfree = np.ones(len(ns), dtype=bool)
    limit = math.isqrt(int(ns.max()))
    for p in _sieve_primes(limit):
        div = cof % p == 0
        if not div.any():
            continue
        spf_arr[div & (spf_arr == 0)] = p
        idx = np.flatnonzero(div)
        cof[idx] //= p
        omega[idx] += 1
        again = cof[idx] % p == 0
        sqfree[idx[again]] = False
        idx = idx[again]
        while idx.size:
            cof[idx] //= p
            omega[idx] += 1
            idx = idx[cof[idx] % p == 0]
    left = cof > 1
    omega[left] += 1
    fresh = left & (spf_arr == 0)
    spf_arr[fresh] = cof[fresh]
    spf_arr[ns == 1] = 0
    return spf_arr, omega, sqfree


def strided_sieve_segment(lo, hi, base_primes, pmin=2):
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


def _sieve_primes(limit):
    # plain boolean Eratosthenes, used only to feed trial division
    if limit < 2:
        return []
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return [int(p) for p in np.flatnonzero(mask)]


# ------------------------------------------------------------- direct sums

def exact_sum(values):
    """Exactly rounded sum: math.fsum over one Python float per element."""
    return math.fsum(np.asarray(values).astype(np.float64).tolist())


def summatory_liouville(x):
    return sum(liouville(n) for n in range(1, x + 1))


def segmented_summatory_lambda(x, segment=1 << 18):
    """sum_{n <= x} lambda(n) from the parity of omega on each segment of the
    strided sieve, the route summatory_lambda took before the Mertens
    table."""
    base = np.array(_sieve_primes(math.isqrt(x)), dtype=np.int64)
    total = 0
    for a in range(1, x + 1, segment):
        b = min(a + segment, x + 1)
        omega, _, _ = strided_sieve_segment(a, b, base, pmin=b)
        total += (b - a) - 2 * int(np.count_nonzero(omega & 1))
    return total


def chebyshev_psi(x):
    total = 0.0
    for p in primes_upto(x):
        pk = p
        while pk <= x:
            total += math.log(p)
            pk *= p
    return total


def whole_array_lambda_series(ac, s, N):
    """sum_{n <= N} lambda(n) n^{-s} over one N-long array: lambda from
    ac.liouville_range(1, N + 1) as float, every term lambda(n) n^{-sigma}
    at real s or lambda(n) e^{-s log n} at complex s at once, and exact_sum
    of each part, the series before it was streamed.

    ac is the arith_core module; only its sieve feeds this side."""
    lam = ac.liouville_range(1, N + 1).astype(np.float64)
    n = np.arange(1, N + 1, dtype=np.float64)
    s = complex(s)
    if s.imag == 0:
        return exact_sum(lam * n ** -s.real)
    terms = lam * np.exp(-s * np.log(n))
    return complex(exact_sum(terms.real), exact_sum(terms.imag))


def squarefree_count(x):
    return sum(1 for n in range(1, x + 1) if mobius(n) != 0)


def naive_window_means(values, starts, stops):
    """Window means of values[n] for n in (starts[i], stops[i]], 1-indexed."""
    out = []
    for a, b in zip(starts, stops):
        s = sum(int(values[n]) for n in range(a + 1, b + 1))
        out.append(s / (b - a))
    return out


def _window_edges(kind, X, h):
    """(start, stop) of every window (start, stop] anchored at x in (X, 2X]:
    (x, x + h] when additive, ((1 - h/X) x, x] when multiplicative."""
    for x in range(X + 1, 2 * X + 1):
        yield (x, x + h) if kind == "additive" else (x * (X - h) // X, x)


def integer_square_totals(values, kind, X, h):
    """{l: T_l}: the exact sum of S^2 over the windows of length l, S the
    Python-int sum of the integers values[n] (1-indexed) over the window."""
    prefix = [0] + list(itertools.accumulate(int(values[n]) for n in range(1, 2 * X + h + 1)))
    totals = {}
    for a, b in _window_edges(kind, X, h):
        s = prefix[b] - prefix[a]
        totals[b - a] = totals.get(b - a, 0) + s * s
    return totals


def integer_window_variance(values, kind, X, h):
    """Window variance of integer f: math.fsum(T_l / l^2) / X over the
    exact totals of integer_square_totals, one rounding per length."""
    totals = integer_square_totals(values, kind, X, h)
    return math.fsum(t / (ell * ell) for ell, t in totals.items()) / X


def exact_window_variance(values, kind, X, h):
    """The same variance as an exact Fraction, sum of T_l / l^2 over X."""
    totals = integer_square_totals(values, kind, X, h)
    return sum(Fraction(t, ell * ell) for ell, t in totals.items()) / X


def one_shot_abs_window_means(ist, fname, spec):
    """|window mean of f| for every x in (X, 2X] from one np.cumsum over the
    whole span, in one array: the window kernel before it was streamed.

    ist is the interval_stats module; its _value_stream, read in one piece,
    and _edges feed both sides, so a comparison isolates the segment walk."""
    X = spec.X
    xs = np.arange(X + 1, 2 * X + 1, dtype=np.int64)
    starts, stops = ist._edges(spec, xs)
    lo, hi = int(starts[0]), int(stops[-1]) + 1
    vals = ist._value_stream(fname, lo, hi)(lo, hi)
    dtype = np.int64 if vals.dtype == np.int8 else vals.dtype
    prefix = np.zeros(len(vals) + 1, dtype=dtype)
    np.cumsum(vals, dtype=dtype, out=prefix[1:])
    base = starts[0] - 1  # prefix[n - base] = sum of f over [starts[0], n]
    sums = prefix[stops - base] - prefix[starts - base]
    return np.abs(sums / np.subtract(stops, starts, dtype=np.float64))


def one_shot_exp_sum_avg(ist, X, h, alpha):
    """exp_sum_avg from one np.cumsum of lambda(n) e(alpha n) over all of
    (X, 2X + h], in one array: the twisted average before it was streamed.

    ist is the interval_stats module; its sieve and exact sum feed both
    sides, and the prefix and its differences are this oracle's own, so a
    comparison judges the segment walk and the window kernel."""
    lam = ist.arith_core.liouville_range(X + 1, 2 * X + h + 1).astype(np.float64)
    n = np.arange(X + 1, 2 * X + h + 1, dtype=np.float64)
    c = lam * np.exp(2j * np.pi * float(alpha) * n)
    prefix = np.zeros(len(c) + 1, dtype=np.complex128)
    np.cumsum(c, out=prefix[1:])  # prefix[k] = sum of c over (X, X + k]
    sums = prefix[1 + h:X + 1 + h] - prefix[1:X + 1]  # (x, x + h] for x in (X, 2X]
    return ist.fsum(np.abs(sums)) / (h * X)


def naive_correlation(lam, X, j):
    """Sum of lam(n) lam(n+j) over X < n, n+j <= 2X; lam is 1-indexed array."""
    return sum(int(lam[n]) * int(lam[n + j]) for n in range(X + 1, 2 * X - j + 1))


def naive_chowla(lam, X, h):
    """[c_1, ..., c_h] by naive_correlation and the statistic
    (1/(h X^2)) sum_{j <= h/2} c_j^2, summed in integers and divided once."""
    c = [naive_correlation(lam, X, j) for j in range(1, h + 1)]
    return c, sum(v * v for v in c[: h // 2]) / (h * X * X)


# ------------------------------------------------------------- quadrature

def trapezoid_complex(fvals, dt):
    w = np.ones(len(fvals))
    w[0] = w[-1] = 0.5
    return complex(np.dot(w, fvals)) * dt


def mean_value_closed_form(a, T):
    """Exact integral_0^T |sum a_n n^{it}|^2 dt for coeffs a_n on n=1..N."""
    n = np.arange(1, len(a) + 1, dtype=float)
    total = T * float(np.sum(np.abs(a) ** 2))
    for i in range(len(a)):
        for j in range(len(a)):
            if i == j:
                continue
            w = math.log(n[i] / n[j])
            total += (a[i] * np.conj(a[j]) * (np.exp(1j * T * w) - 1) / (1j * w)).real
    return total


def gram_integral(ns, a, intervals, fsum):
    """Exact sum over intervals (s, e) of int_s^e |sum_n a_n n^{it}|^2 dt by
    the Gram form, the vectorized mean_value_closed_form: (e - s) |a_n|^2 on
    the diagonal, and a_m conj(a_n) (e^{i e w} - e^{i s w}) / (i w) with
    w = log(m/n) = log1p((m - n)/n) off it. The real parts of all terms, in
    row blocks of about 2^18, go into one call of fsum, an exactly rounded
    sum (util.fsum)."""
    ns = np.asarray(ns, dtype=np.float64)
    a = np.asarray(a, dtype=np.complex128)
    rows = max(1, (1 << 18) // len(ns))
    terms = []
    for s, e in intervals:
        for i in range(0, len(ns), rows):
            m = ns[i:i + rows, None]
            w = np.log1p((m - ns) / ns)
            with np.errstate(invalid="ignore"):
                kernel = (np.exp(1j * e * w) - np.exp(1j * s * w)) / (1j * w)
            kernel[m == ns] = e - s
            terms.append((a[i:i + rows, None] * np.conj(a) * kernel).real.ravel())
    return fsum(np.concatenate(terms))


# ------------------------------------------------------ Dirichlet polynomials

def direct_phase_sum(logn, vals, ts):
    """sum_n vals_n e^{i t logn_n} at every t, one exponential per node and
    term, in node chunks of about 2^22 elements."""
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty(len(ts), dtype=np.complex128)
    chunk = max(1, (1 << 22) // max(len(logn), 1))
    for a in range(0, len(ts), chunk):
        b = min(a + chunk, len(ts))
        out[a:b] = np.exp(1j * np.multiply.outer(ts[a:b], logn)) @ vals
    return out


# ---------------------------------------------------------------- entropy

def entropy_nats(masses):
    tot = 0.0
    for p in masses:
        if p > 0:
            tot -= p * math.log(p)
    return tot


def joint_entropy_table(table):
    return entropy_nats([p for row in table for p in row])


def mutual_information_table(table):
    px = [sum(row) for row in table]
    py = [sum(col) for col in zip(*table)]
    return entropy_nats(px) + entropy_nats(py) - joint_entropy_table(table)


def loop_pack_signs(lam, start, count, H):
    """Sign patterns packed one bit per pass: bit j of entry i is set iff
    lam[start + i + j] < 0, for i < count and j < H."""
    bits = np.zeros(count, dtype=np.int64)
    for j in range(H):
        bits |= (lam[start + j : start + j + count] < 0).astype(np.int64) << j
    return bits


def sort_twice_joint(lam, lo, x, H, primes):
    """(keys, masses) of the 1/n-weighted law on lo <= n <= x of the key
    (sign bits of lam past n) * prod(primes) + mixed-radix residue index of
    n, with lam[i] = lambda(lo + 1 + i). Each 2^21-integer chunk is grouped by
    one sort, the concatenated chunk groups by a second one, and the masses
    are divided by their exactly rounded total."""
    omega = math.prod(primes)
    chunk = 1 << 21
    key_parts, wt_parts = [], []
    for a in range(lo, x + 1, chunk):
        b = min(a + chunk, x + 1)
        ns = np.arange(a, b, dtype=np.int64)
        y = np.zeros(b - a, dtype=np.int64)
        radix = 1
        for p in primes:
            y += radix * (ns % p)
            radix *= p
        keys = loop_pack_signs(lam, a - lo, b - a, H) * omega + y
        uniq, inv = np.unique(keys, return_inverse=True)
        key_parts.append(uniq)
        wt_parts.append(np.bincount(inv, weights=1.0 / ns.astype(np.float64)))
    keys, inv = np.unique(np.concatenate(key_parts), return_inverse=True)
    masses = np.bincount(inv, weights=np.concatenate(wt_parts))
    return keys, masses / math.fsum(masses)


def sort_marginal(values, masses):
    """(distinct values ascending, their summed masses) by one sort."""
    uniq, inv = np.unique(values, return_inverse=True)
    return uniq, np.bincount(inv, weights=masses)


def _F_on_primes(xs, res, primes, H):
    out = {}
    for p, r in zip(primes, res):
        p = int(p)
        total = 0
        for j in range(1, H - p + 1):
            if (r + j) % p == 0:
                total += xs[j - 1] * xs[j + p - 1]
        out[p] = total
    return out


def loop_uniform_average(joint):
    """E F(signs, residues*) with residues* uniform and independent of the
    joint's sign pattern: one Python-int pair sum per sign pattern of the
    x-marginal and residue pattern, m * acc / omega per sign pattern, one
    math.fsum."""
    xs, xmass = joint.x_marginal
    parts = []
    for b, m in zip(xs, xmass):
        xvec = [1 - 2 * ((int(b) >> (j - 1)) & 1) for j in range(1, joint.H + 1)]
        acc = 0
        for yidx in range(joint.omega):
            comps = _F_on_primes(xvec, joint.y_residues(yidx), joint.primes, joint.H)
            acc += sum(comps.values())
        parts.append(m * acc / joint.omega)
    return math.fsum(parts)


# ------------------------------------------------------------ diophantine

def convergents(frac):
    """All continued-fraction convergents of a Fraction, as (p, q) pairs."""
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


def dist_to_z(x):
    return abs(x - round(x))


# ------------------------------------------------------- two-factor identity

def _q_window(w, p, m, qmin_m):
    """Exact dQ/Q measure of the admissible Q-window for n = p*m."""
    one = 1.0 + w.delta
    lo = max(float(w.P0), p / one, w.X / m)
    hi = min(float(w.Q0), float(p), 2.0 * w.X / m, qmin_m / one)
    if hi > lo:
        return math.log(hi / lo)
    return 0.0


def ramare_weight(w, n):
    """The two-factor weight at one integer n, by trial division: for each
    band prime p | n, the closed-form log-measure of its Q-window."""
    n = int(n)
    if n < 2:
        return 0.0
    total = 0.0
    one = 1.0 + w.delta
    for p, _ in trial_factor(n):
        if not w.P0 < p <= one * w.Q0:
            continue
        m = n // p
        qmin_m = next((q for q, _ in trial_factor(m) if q >= w.P0), math.inf)
        total += _q_window(w, p, m, qmin_m)
    return total / math.log(one)


def _identity_factors(mr, w, s):
    """Band primes with -p^{-s}, and the cofactors m of Z2 over
    (X/Q0, 2X/P0] with lambda(m) m^{-s} and their smallest prime factor
    >= P0 (inf when none), all listed and sieved here."""
    one = 1.0 + w.delta
    band = mr.arith_core.primes_in(w.P0, one * w.Q0).astype(np.float64)
    pvals = -np.exp(-s * np.log(band)) if len(band) else np.zeros(0, np.complex128)
    m_base = max(w.X // w.Q0, 1)
    lam_m, least = mr.arith_core.least_factor_range(2 * w.X // w.P0 + 2, w.P0)
    lam_m, least = lam_m[m_base - 1:], least[m_base - 1:]
    ms = np.arange(m_base, m_base + len(lam_m), dtype=np.float64)
    mvals = lam_m * np.exp(-s * np.log(ms))
    return band, pvals, ms, mvals, np.where(least > 0, least, np.inf)


def _plain_product(w, factors, Q):
    """Z1(Q) Z2(Q) from full-length masks over every prime and cofactor."""
    band, pvals, ms, mvals, qmin = factors
    one = 1.0 + w.delta
    in_band = (band > Q) & (band <= one * Q)
    z1 = pvals[in_band].sum() if in_band.any() else 0j
    if z1 == 0:
        return 0j
    keep = (ms > w.X / Q) & (ms <= 2 * w.X / Q) & (qmin >= one * Q)
    z2 = mvals[keep].sum() if keep.any() else 0j
    return z1 * z2


def per_node_identity_residual(mr, w, t, q_nodes):
    """The band identity residual by the plain midpoint loop, one Q-node at
    a time: masks over every band prime and every cofactor at each node.

    mr is the two-factor module; its weight and exact sums feed both sides,
    while the band and the cofactors are listed and sieved here, so a
    comparison isolates the quadrature of Z1(Q) Z2(Q).
    """
    if q_nodes < 16:
        raise ValueError("q_nodes must be at least 16")
    s = 1.0 + 1j * float(t)
    one = 1.0 + w.delta

    lam_n = mr.arith_core.liouville_range(w.X + 1, w.domain_hi + 1)
    ns = np.arange(w.X + 1, w.domain_hi + 1, dtype=np.float64)
    nvals = lam_n * np.exp(-s * np.log(ns))
    lhs = mr.fsum_complex(nvals[ns <= 2 * w.X])
    u = mr.weight_array(w)
    indicator = (ns <= 2 * w.X).astype(np.float64)
    z_err = mr.fsum_complex((indicator - u) * nvals)

    factors = _identity_factors(mr, w, s)
    log_lo, log_hi = math.log(w.P0), math.log(w.Q0)
    du = (log_hi - log_lo) / q_nodes
    centers = np.exp(log_lo + du * (np.arange(q_nodes) + 0.5))
    acc = 0j
    for Q in centers:
        acc += _plain_product(w, factors, Q) * du
    rhs = acc / math.log(one)
    return abs(lhs - z_err - rhs)


def per_piece_identity_exact(mr, w, t):
    """(residual, scale) of the exact band identity by the plain per-piece
    loop: its own cuts at p, p/(1+delta), X/m, 2X/m and qmin/(1+delta)
    clipped to [P0, Q0], and one full-length-mask product per piece."""
    s = 1.0 + 1j * float(t)
    one = 1.0 + w.delta
    lam_n = mr.arith_core.liouville_range(w.X + 1, w.domain_hi + 1)
    ns = np.arange(w.X + 1, w.domain_hi + 1, dtype=np.float64)
    terms = mr.weight_array(w) * (lam_n * np.exp(-s * np.log(ns)))
    lhs = mr.fsum_complex(terms)
    scale = mr.fsum(np.abs(terms))

    factors = _identity_factors(mr, w, s)
    band, _, ms, _, qmin = factors
    cuts = np.concatenate([[w.P0, w.Q0], band, band / one, w.X / ms, 2 * w.X / ms,
                           qmin[np.isfinite(qmin)] / one])
    cuts = np.unique(np.clip(cuts, w.P0, w.Q0))
    lo, hi = cuts[:-1], cuts[1:]
    rhs = mr.fsum_complex([_plain_product(w, factors, q) * d for q, d in
                           zip(np.sqrt(lo * hi), np.log(hi / lo))]) / math.log(one)
    return abs(lhs - rhs), scale


# -------------------------------------------------------------- characters

def _order(g, m):
    k, x = 1, g % m
    while x != 1:
        x = x * g % m
        k += 1
    return k


@functools.lru_cache(maxsize=None)
def _unit_group(q):
    """[(p^e, orders, dlog)] for each prime power p^e of q: the orders of the
    cyclic factors of the units mod p^e, and a dict from each unit to its
    tuple of exponents. The generators are -1 and 5 mod 2^e (3 mod 4) and
    the least primitive root mod odd p^e."""
    out = []
    for p, e in trial_factor(q) if q > 1 else []:
        pe = p**e
        if pe == 2:
            gens = []
        elif pe == 4:
            gens = [(3, 2)]
        elif p == 2:
            gens = [(pe - 1, 2), (5, pe // 4)]
        else:
            phi = pe // p * (p - 1)
            g = next(g for g in range(2, pe) if g % p and _order(g, pe) == phi)
            gens = [(g, phi)]
        dlog = {}
        for exps in itertools.product(*(range(d) for _, d in gens)):
            r = 1
            for (g, _), k in zip(gens, exps):
                r = r * pow(g, k, pe) % pe
            dlog[r] = exps
        out.append((pe, [d for _, d in gens], dlog))
    return out


def character_value(q, index, n):
    """chi_index(n) mod q, one residue at a time: the exponents of index in
    mixed radix over the factor orders, one phase (k e mod d) / d added per
    factor in order, then one cmath.exp; 0 off the units."""
    if q == 1:
        return 1.0 + 0j
    n %= q
    if math.gcd(n, q) != 1:
        return 0j
    phase = 0.0
    for pe, orders, dlog in _unit_group(q):
        for d, e in zip(orders, dlog[n % pe]):
            phase += ((index % d) * e % d) / d
            index //= d
    return cmath.exp(2j * math.pi * phase)


def bridge_terms(a, q):
    """The divisor bridge of e(an/q), one term at a time: [(d, M, index,
    coefficient)] over d | q and the characters mod M = q/d, each
    coefficient the unit-averaged sum of e(amd/q) conj(chi(m)) over the
    units m in 1..M (m = 0 alone when M = 1)."""
    terms = []
    for d in range(1, q + 1):
        if q % d:
            continue
        M = q // d
        units = [m for m in range(1, M + 1) if math.gcd(m, M) == 1] if M > 1 else [0]
        for idx in range(len(units)):
            coeff = sum(cmath.exp(2j * math.pi * a * m * d / q)
                        * character_value(M, idx, m).conjugate() for m in units)
            terms.append((d, M, idx, coeff / len(units)))
    return terms


def bridge_resum(terms, n):
    """Sum of coefficient * chi(n/d) over the terms with d | n."""
    total = 0j
    for d, M, idx, coeff in terms:
        if n % d == 0:
            total += coeff * character_value(M, idx, n // d)
    return total
