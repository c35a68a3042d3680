"""The three-step walk when only relative ranks are observed.

The whole problem compresses into one number p: the probability that the
walk makes three ascending positive records with the third position still
below the sum of the first two steps.   Then the optimal expected rank is
min(55/24, 109/48 + 2p), achieved by one of two rank rules depending on
whether p exceeds its complement q = 1/48 - p.  A 10-million-path
simulation reproduces the 24-ordering probability table.
"""

from fractions import Fraction

import numpy as np

from rankstop import (
    IntervalUnionUniform,
    Laplace,
    PowerFold,
    Uniform,
    compute_pq,
    optimal_rank_policy,
    optimal_rank_value,
    permutation_frequencies,
    permutation_table,
    shift_concentration_check,
)
from rankstop.walkcore import ordering_string

print("p, q, rule branch, and value per distribution")
print("-" * 64)
for label, dist in [
    ("uniform(-1, 1)", Uniform(1)),
    ("laplace", Laplace(1)),
    ("two intervals", IntervalUnionUniform(1, 2)),
    ("power fold 0.1", PowerFold(0.1)),
]:
    pq = compute_pq(dist)
    _, branch = optimal_rank_policy(pq)
    member = shift_concentration_check(dist).member
    print(f"{label:16s} p = {pq.p:.8f}  q = {pq.q:.8f}  branch {branch}  "
          f"value {optimal_rank_value(pq):.6f}  concentrated-at-0: {member}")

print()
print("value bounds: (109/48, 55/24] =", (109 / 48, 55 / 24))
print("p <= 1/96 whenever mass near 0 dominates every shifted interval;")
print("the uniform attains it, the power-fold family drives p to 0.")

print()
print("the 24-ordering table at the uniform point p = q = 1/96,")
print("against 10^7 simulated walks:")
print("-" * 64)
table = permutation_table(Fraction(1, 96))
freq = permutation_frequencies(Uniform(1), 10**7, seed=11)
probs = [float(v) for v in table.probabilities()]
rows = table.rows
print(f"{'ordering':>14s} {'exact':>10s} {'simulated':>10s}")
for i, row in enumerate(rows):
    print(f"{ordering_string(row.negative):>14s} {probs[i]:>10.6f} {freq.frequencies[i]:>10.6f}")
worst = np.max(np.abs(freq.frequencies - np.array(probs)))
print(f"largest absolute gap across all 24 cells: {worst:.2e}")
