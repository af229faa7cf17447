"""
The two-factor weight and its series identity
=============================================

A weight u(n) built from one prime factor in a band and a rough
cofactor: it sits in [0, 1], covers most of (X, 2X] exactly, and the
Dirichlet series it defines factorizes into two shorter ones. The
quadrature residual of that identity shrinks as the log-Q grid refines,
and the same Q-breakpoints give the integral exactly.
"""

import math

from liouville_lab import mr_factorization as mr

X, delta, P0, Q0 = 10**4, 0.1, 10, 100
w = mr.RamareWeight(X, delta, P0, Q0)

u = mr.weight_array(w)
print("weight range [%.3f, %.3f] on (%d, %d]"
      % (float(u.min()), float(u.max()), w.X, w.domain_hi))
print("inside [0,1]:", "PASS" if 0 <= u.min() and u.max() <= 1 else "FAIL")

# individual values straight from the divisor scan: fractional where the
# admissible Q-window is clipped, 1 on the clean two-factor core
for n in (10146, 20366, 21684, 11000):
    print("u(%d) = %.6f" % (n, mr.ramare_weight(w, n)))

# the exceptional set: where u misses the plain indicator of one band
# prime; its density is capped by 3 (alpha + delta)
rep = mr.err_set(w)
alpha = math.log(P0) / math.log(Q0)
print("err density %.4f vs cap %.2f: %s"
      % (rep.density, 3 * (alpha + delta),
         "PASS" if rep.density <= 3 * (alpha + delta) else "FAIL"))
print("near-miss count %d" % len(rep.near_misses))

# series identity: LHS(t) = integral of Z1 * Z2 over the Q-band, checked
# by midpoint quadrature in log Q; the integrand is a step function, so
# single-t residuals wiggle, and the pooled residual is the honest read
tpool = (0.0, 0.4, 0.8, 1.3, 2.1)
print("\n nodes    pooled residual   shrink")
prev = None
for nodes in (4096, 16384, 65536):
    rs = [mr.factorization_identity_residual(w, t, nodes) for t in tpool]
    pooled = sum(rs) / len(rs)
    tag = "" if prev is None else "%.3f" % (pooled / prev)
    print("%6d    %.6e     %s" % (nodes, pooled, tag))
    prev = pooled
print("each 4x refinement should shrink by at least 4x")

# the integrand only jumps where a prime or cofactor enters or leaves, so
# summing over those pieces gives the integral exactly, up to rounding
rep = mr.factorization_identity_exact(w, 0.7)
print("\nexact Q-integral at t=0.7: residual %.2e vs rounding envelope %.2e: %s"
      % (rep.residual, rep.envelope, "PASS" if rep.ratio <= 1 else "FAIL"))
