"""
Sign patterns as random variables: the entropy route
====================================================

Draw N from (x/w, x] with 1/n weights, look at the next H signs and the
residues of N at a band of primes, and measure everything: entropies,
mutual information, uniformity of residues, the pair-sum functional F,
and the decrement sequence that powers the logarithmic correlation bound.
"""

import math

import numpy as np

from liouville_lab import entropy_chowla as ent

x, w, H, eps = 10**6, 10**3, 10, 1.0
model = ent.LogWeightedModel(x, w)
print("support (%d, %d], %d integers" % (model.lo - 1, model.x, model.n_count))

joint = ent.build_joint(model, H, eps)
print("band primes %s, joint support %d keys" % (joint.primes, len(joint.keys)))

Hx = ent.entropy_x(joint)
Hy = ent.entropy_y(joint)
Hxy = ent.joint_entropy(joint)
mi = ent.mutual_information(joint)
print("H(signs)    = %.5f nats (max %.5f)" % (Hx, H * math.log(2)))
print("H(residues) = %.5f nats (max %.5f)" % (Hy, math.log(joint.omega)))
print("H(joint)    = %.5f" % Hxy)
print("I(X;Y)      = %.5f  >= 0: %s" % (mi, "PASS" if mi >= -1e-10 else "FAIL"))
chain = abs(ent.conditional_entropy(joint) - (Hxy - Hy))
print("chain rule dev %.2e: %s" % (chain, "PASS" if chain <= 1e-10 else "FAIL"))

# residues are nearly uniform: the 1/n weights barely see a residue class
dev, cap = ent.y_uniformity(joint)
print("residue uniformity dev %.2e (cap %.2e): %s"
      % (dev, cap, "PASS" if dev <= cap else "FAIL"))

# the F functional reads pair correlations off the joint law; compare
# the dependent expectation with the uniform-residue surrogate
ef = ent.expectation_F(joint)
eg = ent.expectation_F_independent(joint, "g")
print("E F (true residues)    = %.6g" % ef)
print("E F (uniform residues) = %.6g" % eg)

# the two weighted pair sums the expectations bridge into
print("log-weighted pair sum  = %.6g (cap %.4g)"
      % (ent.log_chowla_sum(x, w), 0.1 * math.log(w)))
r = ent.suma_esperanza_residual(x, 10**2, H, eps)
env = 20 * eps * math.log(10**2) / math.log(H)
print("bridge residual %.6g within %.4g: %s" % (r, env, "PASS" if r <= env else "FAIL"))

# concentration: a high-entropy law cannot pile mass on a small event
dense = ent.sign_block_distribution(model, H)
order = np.argsort(dense)[::-1]
ok = all(ent.concentration_check(dense, order[:int(len(dense) ** 0.3)], M)
         for M in (2, 3))
print("concentration on heaviest events:", "PASS" if ok else "FAIL")

# the decrement trace: information per sign along fast-growing blocks
tr = ent.decrement_trace(2000, 10, 1.0, 8, 50)
for h, hrate, irate in tr.steps:
    print("h=%3d  H(X)/h = %.4f  I/h = %.4f" % (h, hrate, irate))
print("first step with information rate under 1/(log h log3 h): %d" % tr.witness_step)

# and the divergent series that forces the decrement to keep biting
J, partial = ent.divergence_sequence(15, 0.3)
print("divergence target 0.3 reached at J=%d, partial sums %s"
      % (J, ["%.4f" % p for p in partial]))
cap = 10 * math.log2(15) ** 2
print("log J = %.4f within %.4g: %s" % (math.log(J), cap, "PASS" if math.log(J) <= cap else "FAIL"))
