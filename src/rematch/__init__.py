"""rematch: simulation and verification toolkit for repeated stochastic matching.

Agents meet over T rounds; each potential edge succeeds with a known
probability, revealed the first time it is selected and persistent
afterwards.  The package provides the decentralized stable-matching
process, greedy-commit, exact optimal online policies by dynamic
programming, the edge decompositions coupling them, the
factor-revealing LPs certifying per-round approximation factors, and a
seeded Monte Carlo harness with a CLI.

Hot kernels (the expectimax DP and per-sample policy simulation) run in
a compiled extension when available; ``rematch.kernels.active_backend()``
tells which implementation is live.
"""

from .coupling import (Decomposition, LemmaReport, coupling_expectations, decompose,
                       decompose_capacitated, verify_charging, verify_domination)
from .errors import (DomainError, LimitExceededError, RematchError, SolverError,
                     UnknownEdgeError, ValidationError)
from .factorlp import (DualCertificate, FactorLp, approximation_factor, build_primal,
                       dual_certificate, limit_factor, solve_lp, u_limit, u_value,
                       verify_dual_feasible)
from .generators import (PROFILES, double_star_layout, gen_complete_bipartite,
                         gen_double_star, gen_random, gen_separation)
from .matching import (WeightedSubproblem, degree_halving_subgraph, greedy_matching,
                       greedy_hypergraph_matching, max_weight_matching)
from .model import (Edge, General, Hypergraph, Instance, KnowledgeState, ManyToOne,
                    RoundSelection, SampleGraph, Status, Trace, Vertex,
                    enumerate_samples, feasible, sample, weighted_reward)
from .montecarlo import RewardStats, monte_carlo
from .policies import (DpValueTable, PolicyId, build_dp, offline_max_matching,
                       opt_value, run_alternating_scan, run_greedy_commit, run_opt,
                       run_opt_follower, run_sm)
from . import kernels

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
