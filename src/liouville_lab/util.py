"""Shared accumulation helpers and resource guards."""

import math

import numpy as np

INT64_MAX = 2**63 - 1

# Exact summation walks its input in blocks of this many elements, so its
# temporaries stay near 1 MiB whatever the input length.
_FSUM_BLOCK = 1 << 14
# np.frexp exponents of finite doubles lie in [-1073, 1024]; adding the bias
# makes them bin indices in [0, 2097].
_FSUM_EXP_BIAS = 1073
_FSUM_BINS = 2200
# Each 53-bit integer mantissa M is split as H * 2^26 + L, 0 <= L < 2^26.
_FSUM_SPLIT = 26
# A block needing more error-free extraction passes goes to the bins.
_EXTRACT_PASSES = 3
# fsum hands float64 arrays of at most this many elements to math.fsum,
# which is faster there than ExactSum's fixed cost (about 35 us on a 2-vCPU
# Xeon, against 7 us for math.fsum on 256 elements and 32 us on 1024)
_FSUM_SMALL = 512


class BudgetError(RuntimeError):
    """A requested computation exceeds its memory or size budget."""


class PreconditionError(ValueError):
    """Inputs violate a stated hypothesis; distinct from a counterexample."""


class ExactSum:
    """Streaming exact sum: add() 1-d numpy arrays one after another, and
    value() is the exactly rounded sum of everything added so far.

    Each array is converted to float64 block by block. A block is summed by
    error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 2008): for a block of n values
    below 2^e in magnitude and sigma = 2^(e + b), 2^b >= 2n, the doubles
    q = (sigma + x) - sigma are exact multiples of 2^(e + b - 53) below
    sigma / n in magnitude, so np.sum(q) is exact in any order, and the rest
    x - q is exact and at most 2^(e + b - 53). Each pass so keeps the top
    53 - b bits of every element and leaves the rest to the next. Every
    element is a multiple of 2^g, the ulp of the least nonzero magnitude,
    so ceil((e + 1 - g) / (53 - b)) passes leave nothing. The fallback
    rule: a block that needs more than _EXTRACT_PASSES passes (an exponent
    span too wide), or whose sigma would overflow (e + b > 1023), goes
    whole to the bincount path below.

    The bincount path is a small superaccumulator (R. Neal,
    arXiv:1505.05571) that lives from one add() to the next; it also takes
    the exact pass totals. Each double is a 53-bit integer mantissa M times
    2^(e - 53) with e from np.frexp. M is split as H * 2^26 + L with
    0 <= L < 2^26, and H and L are added per exponent with np.bincount.
    Those float sums are exact: a block adds at most 2^14 integers of
    magnitude at most 2^27, so every bin total is an integer of magnitude
    at most 2^41. The totals go into two int64 accumulators, which
    therefore cannot overflow within 2^22 blocks (2^36 elements, far past
    any stream a single process sums). value() joins the nonzero bins into
    one Python integer and divides by a power of two once; Python's int/int
    division is correctly rounded, so the result is the double math.fsum
    returns on the concatenation of every added array, whatever the pieces.

    Edge policy:
    - nan or +-inf in any piece gives what math.fsum gives: nan, +-inf, or
      ValueError when both +inf and -inf were added.
    - Nothing added, or only -0.0, gives +0.0, as math.fsum does.
    - Finite input never overflows on the way: [1e308, 1e308, -1e308]
      gives 1e308 where math.fsum raises "intermediate overflow".
    - A total whose rounding exceeds the largest double raises
      OverflowError.
    """

    def __init__(self):
        self._hi = np.zeros(_FSUM_BINS, dtype=np.int64)
        self._lo = np.zeros(_FSUM_BINS, dtype=np.int64)
        self._nan = self._pos_inf = self._neg_inf = False

    def add(self, values):
        """Add every element of the 1-d numpy array values."""
        totals = []
        for start in range(0, len(values), _FSUM_BLOCK):
            block = values[start:start + _FSUM_BLOCK].astype(np.float64, copy=False)
            # |x| as bits: ordered as the magnitudes, and 0x7FF0... up for nan, inf
            mag = np.abs(block).view(np.uint64)
            top = int(mag.max())
            if top >= 0x7FF << 52:  # a nan or inf is in this block
                self._nan |= bool(np.isnan(block).any())
                self._pos_inf |= bool((block == np.inf).any())
                self._neg_inf |= bool((block == -np.inf).any())
                continue
            if not top:
                continue
            mag -= 1  # so that the least is the least nonzero magnitude, less 1
            e = (top >> 52) - 1022  # every |x| < 2^e
            grain = max((int(mag.min()) + 1) >> 52, 1) - 1075  # every x is a multiple of 2^grain
            b = (2 * len(block) - 1).bit_length()  # 2^b >= 2n
            passes = -(-(e + 1 - grain) // (53 - b))
            if passes > _EXTRACT_PASSES or e + b > 1023:
                self._add_bins(block)
            else:
                _extract(block, e, b, passes, totals)
        self._add_bins(np.array(totals))

    def _add_bins(self, values):
        """Add the finite float64 array values by the bincount path, one
        block at a time."""
        for start in range(0, len(values), _FSUM_BLOCK):
            mant, exp = np.frexp(values[start:start + _FSUM_BLOCK])
            mant *= 2.0 ** (53 - _FSUM_SPLIT)  # mant = M / 2^26
            whole = np.floor(mant)
            exp += _FSUM_EXP_BIAS
            block_hi = np.bincount(exp, weights=whole)
            mant -= whole
            block_lo = np.bincount(exp, weights=mant)
            block_lo *= 2.0 ** _FSUM_SPLIT
            self._hi[:len(block_hi)] += block_hi.astype(np.int64)
            self._lo[:len(block_lo)] += block_lo.astype(np.int64)

    def value(self):
        """Exactly rounded sum of everything added so far."""
        if self._pos_inf and self._neg_inf:
            raise ValueError("-inf + inf in fsum")
        if self._nan:
            return math.nan
        if self._pos_inf or self._neg_inf:
            return math.inf if self._pos_inf else -math.inf
        return _join_bins(self._hi, self._lo)


def _extract(block, e, b, passes, totals):
    """Append to totals the exact sum of each extraction pass over the
    finite float64 block, whose elements lie below 2^e; sigma = 2^(e + b)
    with 2^b >= 2 len(block). passes is enough to leave nothing behind, so
    the last pass takes no rest."""
    rest = block
    for k in range(passes):
        sigma = math.ldexp(1.0, e + b)
        q = rest + sigma
        q -= sigma
        totals.append(float(q.sum()))
        if k < passes - 1:
            rest = np.subtract(rest, q, out=q)
            e += b - 53  # rest <= ulp(sigma) / 2 = 2^(e + b - 53)


def fsum(values):
    """Exactly rounded sum of a 1-d array or iterable of floats.

    A numpy array is added into a fresh ExactSum, whose docstring states
    the method and the edge policy. Any other input goes to math.fsum, and
    so does a float64 array of at most _FSUM_SMALL elements: both round
    the exact sum once, so they return the same double, unless math.fsum
    meets an intermediate overflow, where ExactSum takes over.
    """
    if not isinstance(values, np.ndarray):
        return math.fsum(values)
    if values.dtype == np.float64 and values.ndim == 1 and len(values) <= _FSUM_SMALL:
        try:
            return math.fsum(values.tolist())
        except OverflowError:
            pass
    acc = ExactSum()
    acc.add(values)
    return acc.value()


def _join_bins(hi, lo):
    """Correctly rounded double of sum_i (hi[i] 2^26 + lo[i]) 2^(i - 1126)."""
    nonzero = np.flatnonzero(hi | lo)
    if not len(nonzero):
        return 0.0
    base = int(nonzero[0])
    total = 0
    for shift, h, l in zip((nonzero - base).tolist(), hi[nonzero].tolist(),
                           lo[nonzero].tolist()):
        total += ((h << _FSUM_SPLIT) + l) << shift
    scale = base - _FSUM_EXP_BIAS - 53
    if scale >= 0:
        return float(total << scale)
    return total / (1 << -scale)


def fsum_complex(values):
    arr = np.asarray(values, dtype=np.complex128)
    return complex(fsum(arr.real), fsum(arr.imag))


def check_mul64(*factors):
    """Hard error if the integer product of factors overflows int64."""
    prod = 1
    for f in factors:
        prod *= int(f)
    if abs(prod) > INT64_MAX:
        raise OverflowError("product %s exceeds 64-bit range" % (prod,))
    return prod
