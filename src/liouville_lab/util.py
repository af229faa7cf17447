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


class BudgetError(RuntimeError):
    """A requested computation exceeds its memory or size budget."""


class PreconditionError(ValueError):
    """Inputs violate a stated hypothesis; distinct from a counterexample."""


def fsum(values):
    """Exactly rounded sum of a 1-d array or iterable of floats.

    A numpy array is converted to float64 block by block and summed with a
    small superaccumulator (R. Neal, arXiv:1505.05571). Each double is a
    53-bit integer mantissa M times 2^(e - 53) with e from np.frexp. M is
    split as H * 2^26 + L with 0 <= L < 2^26, and H and L are added per
    exponent with np.bincount. Those float sums are exact: a block adds at
    most 2^14 integers of magnitude at most 2^27, so every bin total is an
    integer of magnitude at most 2^41. The totals go into two int64
    accumulators, which therefore cannot overflow within 2^22 blocks
    (2^36 elements, far past any array that fits in memory). At the
    end the nonzero bins are joined into one Python integer and divided by
    a power of two once; Python's int/int division is correctly rounded,
    so the result is the double math.fsum returns. Any other input goes to
    math.fsum.

    Edge policy for arrays:
    - Input holding nan or +-inf is handed to math.fsum, so the value and
      the ValueError for inf + -inf are those of math.fsum.
    - The empty array and [-0.0] give +0.0, as math.fsum does.
    - Finite input never overflows on the way: [1e308, 1e308, -1e308]
      gives 1e308 where math.fsum raises "intermediate overflow".
    - A total whose rounding exceeds the largest double raises
      OverflowError.
    """
    if not isinstance(values, np.ndarray):
        return math.fsum(values)
    hi = np.zeros(_FSUM_BINS, dtype=np.int64)
    lo = np.zeros(_FSUM_BINS, dtype=np.int64)
    for start in range(0, len(values), _FSUM_BLOCK):
        block = values[start:start + _FSUM_BLOCK].astype(np.float64, copy=False)
        mant, exp = np.frexp(block)
        mant *= 2.0 ** (53 - _FSUM_SPLIT)  # mant = M / 2^26
        whole = np.floor(mant)
        exp += _FSUM_EXP_BIAS
        block_hi = np.bincount(exp, weights=whole)
        if not np.isfinite(block_hi).all():  # a nan or inf is in this block
            return math.fsum(values.astype(np.float64, copy=False).tolist())
        mant -= whole
        block_lo = np.bincount(exp, weights=mant)
        block_lo *= 2.0 ** _FSUM_SPLIT
        hi[:len(block_hi)] += block_hi.astype(np.int64)
        lo[:len(block_lo)] += block_lo.astype(np.int64)
    return _join_bins(hi, lo)


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
