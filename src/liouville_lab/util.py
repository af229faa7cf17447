"""Shared accumulation helpers and resource guards."""

import math

import numpy as np

INT64_MAX = 2**63 - 1


class BudgetError(RuntimeError):
    """A requested computation exceeds its memory or size budget."""


class PreconditionError(ValueError):
    """Inputs violate a stated hypothesis; distinct from a counterexample."""


def fsum(values):
    """Exactly rounded sum of a 1-d array or iterable of floats."""
    if isinstance(values, np.ndarray):
        return math.fsum(values.astype(np.float64, copy=False).tolist())
    return math.fsum(values)


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
