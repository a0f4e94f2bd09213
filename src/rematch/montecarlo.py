"""Seeded Monte Carlo engine over policy runs.

Trial i draws its sample graph from sub_seed(seed, i), so the aggregate
is a pure function of (instance, policy, trials, seed).  Trials run in
this thread in index order, and each is added to the running sums as it
finishes, so memory does not grow with the trial count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ValidationError
from .model import Instance, sample
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
    """Per-sample callable producing (weighted reward, per-round success counts)."""
    policy = PolicyId(policy)
    if policy is PolicyId.OFFLINE_MAX:
        def run_offline(smp):
            size = offline_max_matching(instance, smp)
            return float(size), [size]
        return run_offline
    if policy in (PolicyId.OPT, PolicyId.OPT_COMMIT, PolicyId.OPT_FOLLOWER):
        table = build_dp(instance, commit=policy is PolicyId.OPT_COMMIT)

        def run_dp(smp):
            trace = run_opt(instance, smp, table)
            if policy is PolicyId.OPT_FOLLOWER:
                trace = run_opt_follower(instance, smp, trace)
            return trace.total_weighted_reward, list(trace.round_rewards)
        return run_dp
    plain = {PolicyId.SM: run_sm,
             PolicyId.GREEDY_COMMIT: run_greedy_commit,
             PolicyId.ALTERNATING_SCAN: run_alternating_scan}[policy]

    def run_plain(smp):
        trace = plain(instance, smp)
        return trace.total_weighted_reward, list(trace.round_rewards)
    return run_plain


def monte_carlo(instance: Instance, policy: PolicyId, trials: int, seed: int,
                threads: int = 1) -> RewardStats:
    """Mean weighted reward with standard error, plus per-round success means.

    Weighted rewards are summed over 2^e, e >= 0 the largest weight's exponent,
    so no sum overflows; short of underflow the scaling is exact, bit for bit.

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
    shift = 0 if policy is PolicyId.OFFLINE_MAX else max(math.frexp(max(instance.weights))[1], 0)

    total = 0.0
    total_sq = 0.0
    round_sum: list[float] = []
    round_sq: list[float] = []
    for i in range(trials):
        value, per_round = runner(sample(instance, sub_seed(seed, i)))
        value = math.ldexp(value, -shift)
        total += value
        total_sq += value * value
        grow = len(per_round) - len(round_sum)
        if grow > 0:
            round_sum += [0.0] * grow
            round_sq += [0.0] * grow
        for r, cnt in enumerate(per_round):
            round_sum[r] += cnt
            round_sq[r] += cnt * cnt

    def stats(s, s2, n):
        mean = s / n
        if n < 2:
            return mean, 0.0
        var = max((s2 - n * mean * mean) / (n - 1), 0.0)
        return mean, math.sqrt(var / n)

    mean, se = (math.ldexp(x, shift) for x in stats(total, total_sq, trials))
    per_mean, per_se = [], []
    for r in range(len(round_sum)):
        mu, s_e = stats(round_sum[r], round_sq[r], trials)
        per_mean.append(mu)
        per_se.append(s_e)
    return RewardStats(policy.value, trials, seed, mean, se, per_mean, per_se)
