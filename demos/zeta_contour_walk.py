"""
Zeta on a vertical line and the smoothed contour route
======================================================

Evaluate the corrected truncated series on the half-plane, check two
classical values, then push a ramp-smoothed partial sum through the
contour formula and compare against the direct weighted sum.
"""

import math

from liouville_lab import zeta_mellin

# two values everyone knows
z2 = zeta_mellin.zeta_strip(2.0)
z4 = zeta_mellin.zeta_strip(4.0)
print("zeta(2) = %.15g   vs pi^2/6  = %.15g" % (z2.real, math.pi**2 / 6))
print("zeta(4) = %.15g   vs pi^4/90 = %.15g" % (z4.real, math.pi**4 / 90))

# off the axis the series still converges fast with the Bernoulli tail
s = complex(0.5, 14.0)
val = zeta_mellin.zeta_strip(s)
print("zeta(0.5+14i) = %.12g %+.12gi" % (val.real, val.imag))

# the ramp cutoff psi_delta: flat to 1-delta, linear to zero at 1
cut = zeta_mellin.SmoothCutoff(0.1)
for u in (0.5, 0.9, 0.95, 1.0):
    print("psi(%.2f) = %.3f" % (u, zeta_mellin.psi_delta(u, cut)))

# its Mellin transform decays like 1/|s|^2, which is what makes the
# truncated contour integral converge; the printed bound must dominate
for t in (5.0, 25.0, 125.0):
    s = complex(1.2, t)
    m = abs(zeta_mellin.mellin_psi(s, cut))
    b = zeta_mellin.mellin_psi_bound(s, cut)
    print("t=%6.1f |M psi| = %.3e  bound = %.3e  %s"
          % (t, m, b, "PASS" if m <= b else "FAIL"))

# contour integral vs the weighted partial sum it represents
x, T = 500.0, 300.0
cut = zeta_mellin.SmoothCutoff(0.15)
rep = zeta_mellin.perron_truncated("unit", x, cut, T)
print("contour route   = %.9g" % rep.integral.real)
print("smoothed sum    = %.9g" % rep.smoothed_sum)
print("sharp sum       = %.9g" % rep.sharp_sum)
err = abs(rep.integral.real - rep.sharp_sum)
print("|contour - sharp| = %.3e within %.3e: %s"
      % (err, rep.envelope, "PASS" if err <= rep.envelope else "FAIL"))
# the quadrature reports how far halving the step moves it; the tnp
# experiment's contour-step-halving row holds it under 1e-4
print("halving delta %.2e under 1e-4: %s"
      % (rep.halving_delta, "PASS" if rep.halving_delta <= 1e-4 else "FAIL"))

# the signed version: cancellation drags everything near zero
rep2 = zeta_mellin.perron_truncated("liouville", x, cut, T)
print("signed contour  = %.6g, signed sharp = %.6g" % (rep2.integral.real, rep2.sharp_sum))
print("signed halving delta %.2e under 1e-4: %s"
      % (rep2.halving_delta, "PASS" if rep2.halving_delta <= 1e-4 else "FAIL"))
