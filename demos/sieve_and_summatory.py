"""
Sign sieves and running sums
============================

Walk the segmented factor sieve, compare against direct division on a
window, then watch the summatory sign sum wander and the square-free
density settle.
"""

from liouville_lab import arith_core

# build a factor table on [1, 200001): spf, Omega, lambda, mu in one pass
tab = arith_core.build_sieve(1, 200001)
print("lambda(2)..lambda(12):", tab.lam[1:12].tolist())
print("mu(2)..mu(12):       ", tab.mu[1:12].tolist())

# spot check one awkward integer
n = 123456
i = n - tab.lo  # each array holds n at index n - lo
print("n=%d spf=%d Omega=%d lambda=%d" % (n, tab.spf[i], tab.omega[i], tab.lam[i]))

# direct division check on a short window
ok = True
for m in range(190000, 190100):
    f, o = m, 0
    d = 2
    while d * d <= f:
        while f % d == 0:
            f //= d
            o += 1
        d += 1
    if f > 1:
        o += 1
    if (-1) ** o != tab.lam[m - tab.lo]:
        ok = False
print("window vs direct division:", "PASS" if ok else "FAIL")

# running sum of the signs: should look like a random walk, scale sqrt(x)
for x in (10**3, 10**4, 10**5, 10**6):
    L = arith_core.summatory_lambda(x)
    print("L(%d) = %6d   |L|/sqrt(x) = %.3f" % (x, L, abs(L) / x**0.5))

# square-free density against 1/zeta(2) = 0.607927...
q = arith_core.squarefree_count(10**6)
print("Q(1e6)/1e6 = %.6f  (target 0.607927)" % (q / 10**6))
print("density within 5e-4:", "PASS" if abs(q / 10**6 - 0.6079271) < 5e-4 else "FAIL")
