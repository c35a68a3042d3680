"""The two-step walk: one rule is optimal for every step law.

With two steps there are eight total rank-adapted rules.  Exhaustive
enumeration shows a unique optimum: skip the origin, stop after the first
step exactly when it goes up, otherwise take the second step.  Its
expected rank is 15/8, independent of the (continuous, symmetric) step
distribution, and a seeded million-path simulation on two very different
laws lands on it.
"""

from rankstop import (
    Laplace,
    SimConfig,
    Uniform,
    enumerate_rank_policies,
    estimate_expected_rank,
    two_step_policy,
)
from rankstop.oracle import canonical_rules

result = enumerate_rank_policies(n=2)
print(f"policies evaluated: {result.policy_count}")
print(f"optimal expected rank: {result.optimal_value} = {float(result.optimal_value)}")
print(f"minimizers: {result.minimizers}")
print("is it the stop-on-new-maximum rule?",
      result.is_minimizer(canonical_rules(2)["two_step_rule"]))

print()
print("every rule, exactly:")
for bits, value in sorted(result.values.items(), key=lambda kv: kv[1]):
    d0, d1_up, d1_down = bits
    label = ("stop at origin" if d0 else
             f"at 1: {'stop' if d1_up else 'go'} on up / {'stop' if d1_down else 'go'} on down")
    print(f"  {value!s:>5}  {label}")

print()
print("million-path check on two step laws (target 1.875):")
for label, dist in [("uniform", Uniform(1)), ("laplace", Laplace(1))]:
    res = estimate_expected_rank(dist, two_step_policy(), SimConfig(n_paths=10**6, seed=2))
    z = (res.mean_rank - 15 / 8) / res.std_error
    print(f"  {label:8s} mean {res.mean_rank:.5f} +- {res.std_error:.5f}  (z = {z:+.2f})")
