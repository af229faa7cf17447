"""
Mean square of Dirichlet polynomials over a t-segment
=====================================================

The headline law: the mean square over [0, T] is (T + O(N)) times the
coefficient energy. Try it on a random vector, on a prime-band vector,
then on a sparse union of intervals where the same energy bound holds
with a square-root savings in the sparse measure.
"""

import numpy as np

from liouville_lab import dirichlet_poly as dp

rng = np.random.default_rng(0)

# a random complex vector supported on 1..400
N, T = 400, 900.0
a = rng.normal(size=N) + 1j * rng.normal(size=N)
seq = dp.coeffs_from_dict({n: a[n - 1] for n in range(1, N + 1)})
res = dp.mean_value_integral(seq, T)
print("T = %g, N = %d" % (T, N))
print("integral        = %.6g" % res.value)
print("T * energy      = %.6g" % (T * res.sum_sq))
print("deviation ratio = %.4f  (law says O(1), envelope 8)" % res.ratio)
# the quadrature certifies its own error; the mean-value experiment's
# quadrature-bound row holds that bound, relative, under 1e-3
rel = res.quadrature_bound / res.value
print("quadrature bound = %.2e relative, under 1e-3: %s" % (rel, "PASS" if rel <= 1e-3 else "FAIL"))
print("mean value law:", "PASS" if abs(res.ratio) <= 8.0 else "FAIL")

# signed reciprocal weights on a prime band (Q, (1+delta)Q]
band = dp.prime_band_coeffs(50, 0.8)
print("band support (%d, %d], nonzero terms %d"
      % (band.support_lo, band.support_hi, int(np.count_nonzero(band.values))))
res2 = dp.mean_value_integral(band, 1200.0)
print("band ratio %.4f -> %s" % (res2.ratio, "PASS" if abs(res2.ratio) <= 8 else "FAIL"))
rel = res2.quadrature_bound / res2.value
print("band quadrature bound %.2e under 1e-3: %s" % (rel, "PASS" if rel <= 1e-3 else "FAIL"))

# a sparse union of t-intervals: energy bound with sqrt(T) in the measure
sub = dp.TSubset(((0.0, 60.0), (300.0, 340.0), (800.0, 860.0)), limit=1200.0)
rep = dp.halasz_subset_integral(band, sub)
print("sparse measure %g, integral %.6g, envelope %.6g"
      % (sub.measure, rep.value, rep.bound))
print("sparse-set bound:", "PASS" if rep.value <= rep.bound else "FAIL")
rel = rep.quadrature_bound / rep.value
print("sparse quadrature bound %.2e under 1e-3: %s" % (rel, "PASS" if rel <= 1e-3 else "FAIL"))

# where can the band polynomial run large? at gamma = 1/9 the level set
# over a T-grid has small over-covered measure
lv = dp.large_value_measure(band, 600.0, 1.0 / 9.0)
print("large-value measure %.4g within %.4g: %s"
      % (lv.measure, lv.bound, "PASS" if lv.measure <= lv.bound else "FAIL"))
