"""Seeded Monte Carlo engine over policy runs.

Trial i draws its sample graph from sub_seed(seed, i), so the aggregate
is a pure function of (instance, policy, trials, seed).  Trials run in
this thread in index order, and each is added to the running sums as it
finishes, so memory does not grow with the trial count.  The sums are
exact integers, rounded once into each reported mean and standard error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import mul

from .errors import ValidationError
from .model import Instance, dyadic, sample
from .policies import (PolicyId, build_dp, offline_max_matching,
                       run_alternating_scan, run_greedy_commit, run_opt,
                       run_opt_follower, run_sm)
from .rng import sub_seed


@dataclass
class RewardStats:
    policy: str
    trials: int
    seed: int
    mean: float
    stderr: float
    per_round_mean: list[float]
    per_round_stderr: list[float]

    def to_json(self) -> dict:
        return {"policy": self.policy, "trials": self.trials, "seed": self.seed,
                "mean": self.mean, "stderr": self.stderr,
                "per_round_mean": self.per_round_mean,
                "per_round_stderr": self.per_round_stderr}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    def to_csv(self) -> str:
        lines = ["round,mean_successes,stderr"]
        for r, (mu, se) in enumerate(zip(self.per_round_mean, self.per_round_stderr), 1):
            lines.append(f"{r},{mu!r},{se!r}")
        return "\n".join(lines) + "\n"


def make_runner(instance: Instance, policy: PolicyId):
    """Per-sample callable giving the per-round success counts (offline-max: one)."""
    policy = PolicyId(policy)
    if policy is PolicyId.OFFLINE_MAX:
        return lambda smp: (offline_max_matching(instance, smp),)
    if policy in (PolicyId.OPT, PolicyId.OPT_COMMIT, PolicyId.OPT_FOLLOWER):
        table = build_dp(instance, commit=policy is PolicyId.OPT_COMMIT)

        def run_dp(smp):
            trace = run_opt(instance, smp, table)
            if policy is PolicyId.OPT_FOLLOWER:
                trace = run_opt_follower(instance, smp, trace)
            return trace.round_rewards
        return run_dp
    plain = {PolicyId.SM: run_sm,
             PolicyId.GREEDY_COMMIT: run_greedy_commit,
             PolicyId.ALTERNATING_SCAN: run_alternating_scan}[policy]
    return lambda smp: plain(instance, smp).round_rewards


def _mean_stderr(total: int, total_sq: int, n: int, K: int) -> tuple[float, float]:
    """Mean and standard error of the mean of n values X_i / 2^K, each rounded
    once from the exact sums of X_i and X_i^2.  The exact variance of the mean
    is shifted by an even power of two 4^e into [1/2, 4) and rounded, and its
    square root is scaled back by 2^e: short of a subnormal result, this is
    the square root of the correctly rounded variance."""
    mean = total / (n << K)
    num = n * total_sq - total * total  # 0 when n = 1
    if not num:
        return mean, 0.0
    den = n * n * (n - 1) << 2 * K
    e = (num.bit_length() - den.bit_length()) // 2
    var = (num << -2 * e) / den if e < 0 else num / (den << 2 * e)
    return mean, math.sqrt(var) * 2.0 ** e


def monte_carlo(instance: Instance, policy: PolicyId, trials: int, seed: int,
                threads: int = 1) -> RewardStats:
    """Mean weighted reward with standard error, plus per-round success means.

    A trial's reward is sum_t W_t c_t over 2^K, with ``dyadic`` integer
    weights W_t (offline-max: one round of weight 1).  The counts, the
    rewards and their squares are summed as ints, and each mean and
    standard error is rounded once from them: no sum overflows or cancels.

    ``threads`` must be at least 1 and does not change the result; trials
    always run serially, because a thread pool was measured slower under
    the GIL.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    policy = PolicyId(policy)
    runner = make_runner(instance, policy)
    weights, K = dyadic((1.0,) if policy is PolicyId.OFFLINE_MAX else instance.weights)

    total_sq = 0
    round_sum, round_sq = [0] * len(weights), [0] * len(weights)
    for i in range(trials):
        counts = runner(sample(instance, sub_seed(seed, i)))
        value = sum(map(mul, weights, counts))
        total_sq += value * value
        for r, c in enumerate(counts):
            round_sum[r] += c
            round_sq[r] += c * c

    mean, se = _mean_stderr(sum(map(mul, weights, round_sum)), total_sq, trials, K)
    per_mean, per_se = zip(*(_mean_stderr(s, s2, trials, 0) for s, s2 in zip(round_sum, round_sq)))
    return RewardStats(policy.value, trials, seed, mean, se, list(per_mean), list(per_se))
