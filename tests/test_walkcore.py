"""Tests of walkcore, and the per-path references other test modules use.

``WalkPath``, ``compute_ranks``, ``run_policy``, ``monotone_transform``
and ``decide`` follow one walk at a time.  They share nothing with
``simulate``'s sign-code ranks, which they check path by path, and the
O(n^2) ``brute_force_ranks`` checks them in turn.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankstop.distributions import Laplace, Uniform
from rankstop.walkcore import (
    FULL_INFORMATION,
    RELATIVE_RANKS,
    PolicyContractError,
    RankPolicyTable,
    StoppingPolicy,
    rank_policy_a,
    rank_policy_b,
    stop_at_policy,
    two_step_policy as table_two_step_policy,
)


class TieError(ValueError):
    """Two walk positions coincide (a probability-zero event)."""


class MonotonicityError(ValueError):
    """A transform claimed to be increasing was not, on the evaluated points."""


@dataclass(frozen=True)
class WalkPath:
    """Realized steps X_1..X_n together with the partial sums S_0..S_n.

    Tied positions are rejected: they have probability zero for continuous
    steps, so a tie in a fixture signals a bug rather than an event to
    break arbitrarily.
    """

    steps: tuple[float, ...]
    sums: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        steps = tuple(float(x) for x in self.steps)
        if len(steps) < 1:
            raise ValueError("a walk needs at least one step")
        sums = (0.0, *np.cumsum(steps).tolist())
        if len(set(sums)) != len(sums):
            raise TieError(f"walk positions contain ties: {sums}")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "sums", sums)

    @property
    def n(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class RankView:
    """Overall and relative ranks of every position of one path."""

    overall: tuple[int, ...]
    relative: tuple[int, ...]

    def overall_rank(self, k: int) -> int:
        return self.overall[k]

    def relative_rank(self, k: int) -> int:
        return self.relative[k]


def compute_ranks(path: WalkPath) -> RankView:
    """Exact integer ranks of S_0..S_n, overall and among the prefix.

    Ranks follow the convention R_k = #(i : S_k <= S_i) including the
    self-comparison, so rank 1 is the best (the running maximum).
    Relative ranks count only positions observed so far.
    """
    s = np.array(path.sums)
    ge = s[:, None] <= s[None, :]  # ge[k, i]: S_k <= S_i
    overall = ge.sum(axis=1)
    relative = np.array([ge[k, : k + 1].sum() for k in range(len(s))])
    return RankView(tuple(int(r) for r in overall), tuple(int(r) for r in relative))


def decide(policy: StoppingPolicy, k: int, observed) -> bool:
    """The policy's stop decision for one observed prefix."""
    if not 0 <= k <= policy.horizon:
        raise ValueError(f"decision time {k} outside 0..{policy.horizon}")
    width = k if policy.mode == FULL_INFORMATION else k + 1
    arr = np.asarray(observed, dtype=float).reshape(1, -1)
    if arr.shape[1] != width:
        raise ValueError(
            f"{policy.mode} policy at k={k} expects a prefix of length {width}, got {arr.shape[1]}"
        )
    return bool(np.asarray(policy.batch_rule(k, arr)).reshape(-1)[0])


def run_policy(policy: StoppingPolicy, path: WalkPath) -> tuple[int, int]:
    """First stopping time of the policy on the path and the rank obtained."""
    if path.n != policy.horizon:
        raise ValueError(f"policy horizon {policy.horizon} does not match path length {path.n}")
    ranks = compute_ranks(path)
    for k in range(path.n + 1):
        observed = path.steps[:k] if policy.mode == FULL_INFORMATION else ranks.relative[: k + 1]
        if decide(policy, k, observed):
            return k, ranks.overall[k]
    raise PolicyContractError(f"policy {policy.name!r} never stopped by k={path.n}")


def monotone_transform(path: WalkPath, g) -> tuple[float, ...]:
    """Positions g(S_0)..g(S_n) for a strictly increasing g.

    Ranks are invariant under such transforms, so a walk can be mapped
    onto, say, discretely sampled geometric Brownian motion without
    changing any stopping problem.  Non-monotonicity of g on the evaluated
    points is detected and rejected.
    """
    values = tuple(float(g(s)) for s in path.sums)
    order = np.argsort(path.sums)
    transformed = np.array(values)[order]
    if np.any(np.diff(transformed) <= 0):
        raise MonotonicityError("transform is not strictly increasing on the walk positions")
    return values


def table_probability(table, chain: tuple[int, ...]):
    """Probability of one ordering in a ``PermutationTable``."""
    chain = tuple(chain)
    for row in table.rows:
        if chain in (row.negative, row.positive):
            return row.probability(table.p, table.q)
    raise KeyError(f"not an ordering of four positions: {chain}")


def brute_force_ranks(sums):
    """Independent O(n^2) rank counter used as the oracle for compute_ranks."""
    n = len(sums)
    overall = [sum(1 for j in range(n) if sums[k] <= sums[j]) for k in range(n)]
    relative = [sum(1 for j in range(k + 1) if sums[k] <= sums[j]) for k in range(n)]
    return overall, relative


def two_step_policy():
    """Stop after the first step exactly when it is a new maximum."""

    def rule(k, observed):
        n = observed.shape[0]
        if k == 0:
            return np.zeros(n, dtype=bool)
        if k == 1:
            return observed[:, 1] == 1
        return np.ones(n, dtype=bool)

    return StoppingPolicy(RELATIVE_RANKS, 2, "two_step_rule", rule)


class TestWalkPath:
    def test_sums(self):
        path = WalkPath((1.0, -2.0, 0.5))
        assert path.sums == (0.0, 1.0, -1.0, -0.5)
        assert path.n == 3

    def test_empty_walk(self):
        with pytest.raises(ValueError):
            WalkPath(())

    def test_rejects_ties(self):
        with pytest.raises(TieError):
            WalkPath((1.0, -1.0))  # S_2 == S_0

    def test_sum_increments(self):
        path = WalkPath((0.3, 0.7, -2.2))
        for k in range(1, 4):
            assert path.sums[k] - path.sums[k - 1] == pytest.approx(path.steps[k - 1])


class TestComputeRanks:
    def test_strictly_increasing_walk(self):
        ranks = compute_ranks(WalkPath((1.0, 1.0, 1.0)))
        assert ranks.overall == (4, 3, 2, 1)
        assert ranks.relative == (1, 1, 1, 1)

    def test_hand_counted_example(self):
        # sums (0, -1, 2, 1): S_3 = 1 is below S_2 = 2 and itself only
        ranks = compute_ranks(WalkPath((-1.0, 3.0, -1.0)))
        assert ranks.overall_rank(3) == 2
        assert ranks.relative_rank(2) == 1
        assert ranks.relative_rank(3) == 2

    def test_origin_relative_rank(self):
        for steps in [(0.4,), (0.1, -0.7), (2.0, -1.0, 5.0)]:
            assert compute_ranks(WalkPath(steps)).relative_rank(0) == 1

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            path = WalkPath(tuple(rng.standard_normal(rng.integers(1, 7))))
            ranks = compute_ranks(path)
            overall, relative = brute_force_ranks(path.sums)
            assert list(ranks.overall) == overall
            assert list(ranks.relative) == relative


class TestRunPolicy:
    def test_stop_at_origin(self):
        path = WalkPath((0.5, -1.2, 0.4))
        tau, rank = run_policy(stop_at_policy(0, 3), path)
        assert tau == 0
        assert rank == compute_ranks(path).overall_rank(0)

    def test_two_step_rule_positive_first_step(self):
        tau, rank = run_policy(two_step_policy(), WalkPath((0.3, -0.9)))
        assert (tau, rank) == (1, 1)  # sums (0, 0.3, -0.6)

    def test_two_step_rule_negative_first_step(self):
        tau, rank = run_policy(two_step_policy(), WalkPath((-0.3, 0.9)))
        assert (tau, rank) == (2, 1)  # sums (0, -0.3, 0.6)

    def test_policy_that_never_stops(self):
        broken = StoppingPolicy(
            RELATIVE_RANKS, 2, "broken",
            lambda k, obs: np.zeros(obs.shape[0], dtype=bool),
        )
        with pytest.raises(PolicyContractError):
            run_policy(broken, WalkPath((0.4, 0.2)))

    def test_rank_mode_sees_only_ranks(self):
        seen = []

        def rule(k, observed):
            seen.append(observed.copy())
            return np.full(observed.shape[0], k >= 2, dtype=bool)

        run_policy(StoppingPolicy(RELATIVE_RANKS, 2, "probe", rule), WalkPath((0.9, -2.0)))
        # observations are integer rank prefixes, never the step values
        assert [o.shape[1] for o in seen] == [1, 2, 3]
        for obs in seen:
            assert np.array_equal(obs, np.round(obs))

    def test_horizon_mismatch(self):
        with pytest.raises(ValueError):
            run_policy(stop_at_policy(0, 3), WalkPath((1.0, 2.0)))


class TestDecide:
    def test_decide_prefix_width(self):
        policy = stop_at_policy(0, 3)
        with pytest.raises(ValueError):
            decide(policy, 2, [1, 2])  # ranks prefix at k=2 needs 3 entries

    def test_decide_time_range(self):
        policy = stop_at_policy(0, 3)
        with pytest.raises(ValueError):
            decide(policy, 4, [1, 1, 1, 1, 1])


def _histories(horizon):
    """Every relative-rank history R~_0..R~_horizon, one per row."""
    grids = np.meshgrid(*(np.arange(1, j + 2) for j in range(horizon + 1)), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _closure(horizon, stop):
    return StoppingPolicy(RELATIVE_RANKS, horizon, "closure",
                          lambda k, obs: np.array([k == horizon or stop(k, row) for row in obs]))


class TestRankPolicyTables:
    @pytest.mark.parametrize("policy, closure", [
        (rank_policy_a(), _closure(3, lambda k, r: (k == 1 and r[1] == 1)
                                   or (k == 2 and r[1] == 2 and r[2] <= 2))),
        (rank_policy_b(), _closure(3, lambda k, r: (k == 1 and r[1] == 1)
                                   or (k == 2 and r[1] == 2 and r[2] == 1))),
        (table_two_step_policy(), two_step_policy()),
        (stop_at_policy(2, 3), _closure(3, lambda k, r: k >= 2)),
        (stop_at_policy(0, 1), _closure(1, lambda k, r: True)),
    ], ids=["rank_rule_a", "rank_rule_b", "two_step_rule", "stop_at_2", "stop_at_0_h1"])
    def test_named_rules_match_their_closures(self, policy, closure):
        histories = _histories(policy.horizon)
        for k in range(policy.horizon + 1):
            observed = histories[:, : k + 1]
            np.testing.assert_array_equal(policy.batch_rule(k, observed),
                                          closure.batch_rule(k, observed))

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    def test_stop_at_stops_exactly_there(self, horizon):
        rng = np.random.default_rng(horizon)
        for k in range(horizon + 1):
            policy = stop_at_policy(k, horizon)
            assert policy.name == f"stop_at_{k}"
            for _ in range(10):
                assert run_policy(policy, WalkPath(tuple(rng.standard_normal(horizon))))[0] == k

    def test_bit_count_gives_horizon(self):
        for bits, horizon in [((1,), 1), ((0, 1, 0), 2), ((0,) * 9, 3)]:
            table = RankPolicyTable(bits)
            assert table.horizon == table.to_policy().horizon == horizon


class TestMonotoneTransform:
    def test_exp_preserves_ranks(self):
        path = WalkPath((0.7, -1.9, 0.8))
        transformed = monotone_transform(path, math.exp)
        overall, relative = brute_force_ranks(transformed)
        ranks = compute_ranks(path)
        assert tuple(overall) == ranks.overall
        assert tuple(relative) == ranks.relative

    def test_affine_preserves_ranks(self):
        path = WalkPath((0.2, 0.4, -1.0))
        transformed = monotone_transform(path, lambda x: 2.0 * x + 1.0)
        overall, _ = brute_force_ranks(transformed)
        assert tuple(overall) == compute_ranks(path).overall

    def test_geometric_walk_decisions_unchanged(self):
        # exp maps the walk to sampled geometric-Brownian-like positions;
        # a rank policy cannot tell the difference.
        rng = np.random.default_rng(11)
        policy = two_step_policy()
        for _ in range(100):
            path = WalkPath(tuple(rng.standard_normal(2)))
            tau, _ = run_policy(policy, path)
            positions = monotone_transform(path, math.exp)
            rel = brute_force_ranks(positions)[1]
            tau_transformed = 1 if rel[1] == 1 else 2
            assert tau == tau_transformed

    def test_rejects_decreasing(self):
        with pytest.raises(MonotonicityError):
            monotone_transform(WalkPath((0.5, 0.25)), lambda x: -x)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=6),
        st.floats(0.1, 3),
        st.floats(-2, 2),
    )
    def test_random_increasing_transforms(self, steps, scale, shift):
        try:
            path = WalkPath(tuple(steps))
        except TieError:
            return
        # near-ties collapse under float evaluation of g; the contract only
        # promises rank preservation when the evaluated points stay distinct
        if np.min(np.diff(np.sort(path.sums))) < 1e-9:
            return

        def g(x):
            return scale * x + shift + 0.1 * math.tanh(x)

        transformed = monotone_transform(path, g)
        overall, relative = brute_force_ranks(transformed)
        ranks = compute_ranks(path)
        assert tuple(overall) == ranks.overall
        assert tuple(relative) == ranks.relative


class TestDistributionalInvariants:
    """Simulation-level facts about ranks of the three-step walk."""

    N = 10**6

    def _sample_sums(self, dist, seed):
        rng = np.random.default_rng(seed)
        steps = dist.ppf(rng.random((self.N, 3)))
        return np.concatenate([np.zeros((self.N, 1)), np.cumsum(steps, axis=1)], axis=1)

    @pytest.mark.parametrize("dist", [Uniform(1), Laplace(1)], ids=["uniform", "laplace"])
    def test_overall_minus_relative_rank_mean(self, dist):
        # E[R_k - R~_k] = (n - k) / 2: the unseen steps are symmetric coin flips
        sums = self._sample_sums(dist, 2026)
        n = 3
        for k in range(n + 1):
            overall = (sums[:, [k]] <= sums).sum(axis=1)
            relative = (sums[:, [k]] <= sums[:, : k + 1]).sum(axis=1)
            gap = overall - relative
            se = gap.std(ddof=1) / math.sqrt(self.N)
            assert abs(gap.mean() - (n - k) / 2) <= max(3 * se, 1e-12), f"k={k}"

    def test_running_minimum_dominance(self):
        # at a running minimum, taking one more step never hurts on average
        sums = self._sample_sums(Uniform(1), 99)
        for k in range(3):
            relative = (sums[:, [k]] <= sums[:, : k + 1]).sum(axis=1)
            at_min = relative == k + 1
            r_here = (sums[at_min][:, [k]] <= sums[at_min]).sum(axis=1)
            r_next = (sums[at_min][:, [k + 1]] <= sums[at_min]).sum(axis=1)
            diff = r_next - r_here
            se = diff.std(ddof=1) / math.sqrt(len(diff))
            assert diff.mean() <= 3 * se, f"k={k}"
