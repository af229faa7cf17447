"""
Rational approximation, arc dissection, and sign correlations
=============================================================

From continued fractions to major/minor arcs, capped reciprocal sums,
the prime phase sum concentrating near rationals, and ternary counts
with and without sign weights.
"""

import math
from fractions import Fraction

import numpy as np

from liouville_lab import expsum_circle as ec

# every alpha has a convergent a/q with q <= Q and |alpha - a/q| <= 1/(qQ)
for alpha, Q in ((math.pi, 100), (math.e, 50), (2**0.5, 30)):
    ra = ec.dirichlet_approx(alpha, Q)
    print("alpha=%.6f ~ %d/%d  err %.2e  (Q=%d)" % (alpha, ra.a, ra.q, ra.err, Q))

# arc dissection: major when the denominator is small
for alpha in (math.pi, 0.5 + 1e-5, 0.123456):
    ra = ec.dirichlet_approx(alpha, 200)
    print("alpha=%.6f -> a/q = %d/%d  %s" % (alpha, ra.a, ra.q,
                                             "major" if ra.q <= 12 else "minor"))

# capped reciprocal distance sums under the classical envelope
res = ec.vinogradov_sum(Fraction(1, 3), 3, 10)
print("capped sum at 1/3: value %g, envelope %g (a/q = %d/%d)"
      % (res.value, res.bound, res.a, res.q))
rng = np.random.default_rng(5)
worst = 0.0
for _ in range(50):
    r = ec.vinogradov_sum(float(rng.uniform(0, 1)), int(rng.integers(1, 3000)),
                          float(rng.uniform(1, 400)))
    worst = max(worst, r.value / r.bound)
print("50 random draws, worst value/envelope = %.3f -> %s"
      % (worst, "PASS" if worst <= 1 else "FAIL"))

# the prime phase sum is loud only near rationals with tiny denominator
m = ec.major_arc_measure(10**4, 0.5, 10**4)
print("loud-phase measure at h=1e4, eps=0.5: %g (cap 0.032)" % m)

# autocorrelations of the sign sequence, all shifts up to h at once
table, stat = ec.chowla_avg(10**5, 50)
c = table.c
print("shift correlations c_1..c_6:", c[:6].tolist())
print("averaged statistic %.3e (cap 0.05): %s"
      % (stat, "PASS" if stat < 0.05 else "FAIL"))

# average over prime shifts only
total, norm = ec.prime_shift_correlation(10**5, 100)
print("prime-shift total %d, normalized %.3e" % (total, norm))

# ternary counts: unweighted is exactly (N-1)(N-2)/2; sign-weighted is tiny
N = 5000
unit = ec.ternary_sum(N, "unit")
signed = ec.ternary_sum(N, "liouville")
print("ternary N=%d: unit %d (exact %d), signed %d (%.2e of unit)"
      % (N, unit, (N - 1) * (N - 2) // 2, signed, abs(signed) / unit))

# characters: the exact unit-group tables behind the major arcs
tab = ec.characters_mod(12)
V = tab.values
gram = V @ V.conj().T / ec.euler_phi(12)
print("q=12: %d characters, orthonormality dev %.2e"
      % (tab.n_chars, float(np.max(np.abs(gram - np.eye(tab.n_chars))))))
got = ec.reconstruct_additive(ec.additive_to_multiplicative(12), np.arange(1, 25))
worst = max(abs(got[5, n - 1] - ec.e_of(5 * n / 12)) for n in range(1, 25))
print("phase rebuilt from characters, worst dev %.2e: %s"
      % (worst, "PASS" if worst <= 1e-10 else "FAIL"))
