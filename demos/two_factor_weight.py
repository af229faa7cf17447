"""
The two-factor weight and its series identity
=============================================

A weight u(n) built from one prime factor in a band and a rough
cofactor: it sits in [0, 1], covers most of (X, 2X] exactly, and the
Dirichlet series it defines factorizes into two shorter ones. The
integrand of that identity is a step function in log Q, so the jumps
bound its midpoint-rule residual at any grid, and the same Q-breakpoints
give the integral exactly.
"""

import math

from liouville_lab import mr_factorization as mr

X, delta, P0, Q0 = 10**4, 0.1, 10, 100
w = mr.RamareWeight(X, delta, P0, Q0)

u = mr.weight_array(w)
print("weight range [%.3f, %.3f] on (%d, %d]"
      % (float(u.min()), float(u.max()), w.X, w.domain_hi))
print("inside [0,1]:", "PASS" if 0 <= u.min() and u.max() <= 1 else "FAIL")

# individual values: fractional where the admissible Q-window is clipped,
# 1 on the clean two-factor core
for n in (10146, 20366, 21684, 11000):
    print("u(%d) = %.6f" % (n, u[n - X - 1]))

# the exceptional set: where u misses the plain indicator of one band
# prime; its density is capped by 3 (alpha + delta)
rep = mr.err_set(w)
alpha = math.log(P0) / math.log(Q0)
print("err density %.4f vs cap %.2f: %s"
      % (rep.density, 3 * (alpha + delta),
         "PASS" if rep.density <= 3 * (alpha + delta) else "FAIL"))

# series identity: LHS(t) = integral of Z1 * Z2 over the Q-band, checked
# by midpoint quadrature in log Q; the integrand is a step function, so the
# residual wiggles as the grid refines but stays under (du/2) sum |jumps|
ex = mr.factorization_identity_exact(w, 0.7)
print("\n nodes    residual      envelope      ratio")
for nodes in (64, 4096, 16384, 65536):
    r = mr.factorization_identity_residual(w, 0.7, nodes)
    env = mr.residual_envelope(w, ex, nodes)
    print("%6d    %.6e  %.6e  %.3f  %s"
          % (nodes, r, env, r / env, "PASS" if r <= env else "FAIL"))

# the integrand only jumps where a prime or cofactor enters or leaves, so
# summing over those pieces gives the integral exactly, up to rounding
print("\nexact Q-integral at t=0.7: residual %.2e vs rounding envelope %.2e: %s"
      % (ex.residual, ex.envelope, "PASS" if ex.ratio <= 1 else "FAIL"))
