"""Certifying the closed forms with brute force.

Nothing here trusts the analytic solutions: a 512-policy exhaustive
enumeration (exact rational arithmetic) recovers the rank-rule value, a
dynamic program on a 2001-atom quantile grid recovers the
full-information value and its stop regions, and seeded Monte Carlo ties
the two worlds together.
"""

import math
from fractions import Fraction

import numpy as np

from rankstop import (
    RankPolicyTable,
    SimConfig,
    Uniform,
    enumerate_rank_policies,
    estimate_expected_rank,
    full_info_policy,
    grid_dp_full_info,
    optimal_rank_value,
    solve_full_info,
    stage2_disagreement,
)
from rankstop.oracle import canonical_rules

uniform = Uniform(1)

print("exhaustive enumeration of all 512 three-step rank rules")
print("-" * 60)
for p in (Fraction(1, 192), Fraction(1, 96), Fraction(1, 48)):
    res = enumerate_rank_policies(p, n=3)
    closed = optimal_rank_value(p)
    named = {name: res.is_minimizer(bits) for name, bits in canonical_rules(3).items()
             if name.startswith("rank_rule")}
    print(f"p = {str(p):>6s}: enumerated optimum {str(res.optimal_value):>8s}, "
          f"closed form {str(closed):>8s}, optimal rules: {named}")

res = enumerate_rank_policies(Fraction(1, 96), n=3)
best = min(res.values.items(), key=lambda kv: kv[1])
print("one optimal decision table:", RankPolicyTable(best[0]).describe())

print()
print("quantile-atom dynamic program, uniform steps")
print("-" * 60)
sol = solve_full_info(uniform)
for m in (101, 501, 2001):
    dp = grid_dp_full_info(uniform, m=m)
    print(f"  m = {m:>5d}: value {dp.value:.6f}  (analytic {sol.value:.6f}, "
          f"gap {dp.value - sol.value:+.1e})")

dp = grid_dp_full_info(uniform, m=2001)
policy = full_info_policy(uniform, sol.x1_star)
dis = stage2_disagreement(dp, policy)
print(f"  stage-2 stop regions disagree on {100 * dis:.2f}% of atom cells")
print(f"  (the closed-form boundaries x2 = -x1/2 and x2 = -x1 cut through")
print(f"   a finite grid, so a thin band of boundary cells is expected)")

print()
print("monte carlo closes the loop")
print("-" * 60)
mc = estimate_expected_rank(uniform, policy, SimConfig(n_paths=10**6, horizon=3, seed=1))
print(f"  simulated optimal-rule value {mc.mean_rank:.5f} +- {mc.std_error:.5f}")
print(f"  analytic {sol.value:.5f}, DP {dp.value:.5f}")
print(f"  stop-time split: {mc.stop_time_histogram}, "
      f"P(stop at 1) target {sol.F_at_threshold - 0.5:.5f}")
