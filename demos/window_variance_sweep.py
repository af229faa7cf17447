"""
Short-window sign averages: variance collapse
=============================================

Over x in (X, 2X], average the signs in a short window past x and watch
the variance of those averages fall as the window grows. Then count the
exceptional windows and bridge the window statistic to a mean square on
the 1-line.
"""

import math

from liouville_lab import arith_core, interval_stats

X = 10**5

# one window, by hand: the signs over (x, x+h] rarely agree
s = int(arith_core.liouville_range(X + 2, X + 52).sum())
print("sum of signs over (%d, %d] = %d" % (X + 1, X + 1 + 50, s))

# variance sweep: multiplicative windows ((1-h/X)x, x]
print("\n h      variance       rms mean")
prev = None
for h in (30, 100, 300, 1000, 3000, 10000):
    v = interval_stats.variance("liouville", interval_stats.WindowSpec("multiplicative", X, h))
    tag = "" if prev is None else ("  down" if v < prev else "  UP?!")
    print("%5d  %.6e  %.5f%s" % (h, v, math.sqrt(v), tag))
    prev = v

# exceptional windows: fraction where |mean| >= tau, against Chebyshev
spec = interval_stats.WindowSpec("multiplicative", X, 300)
v = interval_stats.variance("liouville", spec)
taus = (0.05, 0.1, 0.2)
for tau, frac in zip(taus, interval_stats.exceptional_fraction("liouville", spec, taus)):
    cheb = v / tau**2
    print("tau=%.2f  exceptional %.5f  chebyshev cap %.5f  %s"
          % (tau, frac, cheb, "PASS" if frac <= cheb + 1e-15 else "FAIL"))

# same variance, read through Parseval on the 1-line: the window
# statistic is controlled by a mean square of the signed series
link = interval_stats.parseval_link(10**4, 50, 0.5)
print("\nparseval bridge: lhs %.6g <= envelope %.6g: %s"
      % (link.lhs, link.envelope, "PASS" if link.lhs <= link.envelope else "FAIL"))
rel = link.quadrature_bound / link.integral
print("bridge quadrature bound %.2e under 1e-2: %s" % (rel, "PASS" if rel <= 1e-2 else "FAIL"))

# additive windows are controlled by multiplicative ones up to h^(1/2) slack
lhs, bound = interval_stats.additive_from_multiplicative_check(5000, 64)
print("additive-from-multiplicative: %.6g <= %.6g: %s"
      % (lhs, bound, "PASS" if lhs <= bound else "FAIL"))
