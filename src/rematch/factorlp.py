"""Factor-revealing linear programs and their closed-form dual certificates.

Two variants share one primal skeleton over variables X_i (augmenting
mass first selected in round i), X_{i,j} (adjacent mass charged to donor
round j) and Y_j (new-success mass of round j):

    maximize   sum_i X_i + sum_{i,j} X_{i,j}
    subject to X_i + sum_{q>=j} X_{i,q} <= coef * Y_j   (all i, j)
               sum_i X_{i,j}           <= 2 Y_j         (all j)
               sum_j Y_j               <= 1

with coef = 2 for the stable-matching variant ("sm") and coef = 1 for
the greedy-commit variant ("gc").  The optimum equals

    u(t) = 2 + 2 (t-a)^t / (t^t - (t-a)^t),   a = 1 (sm) / 2 (gc),

certified by the dual solution built in :func:`dual_certificate`; 1/u
is the per-round approximation factor, decreasing to (2 + 2/(e-1))^-1
>= 0.316 and (2 + 2/(e^2-1))^-1 >= 0.43 respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LimitExceededError, ValidationError
from . import simplex

SOLVE_LIMIT = 12
VARIANTS = ("sm", "gc")


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {VARIANTS}")
    return variant


@dataclass(frozen=True)
class FactorLp:
    """Primal in sparse row form: rows are (((var, coef), ...), rhs)."""

    horizon: int
    variant: str
    num_vars: int
    rows: tuple[tuple[tuple[int, float], ...], ...]
    rhs: tuple[float, ...]
    objective: tuple[float, ...]

    # variable indexing (0-based rounds)
    def x(self, i: int) -> int:
        return i

    def adj(self, i: int, j: int) -> int:
        return self.horizon + i * self.horizon + j

    def y(self, j: int) -> int:
        return self.horizon + self.horizon * self.horizon + j

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        A = np.zeros((len(self.rows), self.num_vars))
        for r, row in enumerate(self.rows):
            for var, coef in row:
                A[r, var] += coef
        return A, np.array(self.rhs), np.array(self.objective)

    def with_rows(self, extra_rows, extra_rhs) -> "FactorLp":
        """Same LP plus extra inequality rows (test harness hook)."""
        rows = self.rows + tuple(tuple(r) for r in extra_rows)
        return FactorLp(self.horizon, self.variant, self.num_vars,
                        rows, self.rhs + tuple(extra_rhs), self.objective)

    def check_point(self, x, tol: float = 1e-9) -> list[str]:
        """Row labels violated by x beyond tol (empty list = feasible)."""
        x = np.asarray(x, dtype=float)
        A, b, _ = self.dense()
        bad = [f"row {r}" for r in range(len(b)) if A[r] @ x > b[r] + tol]
        bad += [f"nonneg {i}" for i in range(self.num_vars) if x[i] < -tol]
        return bad


def build_primal(t: int, variant: str = "sm") -> FactorLp:
    """t^2 + 2t variables, t^2 + t + 1 inequality rows plus non-negativity."""
    _check_variant(variant)
    if t < 1:
        raise DomainError("horizon t must be >= 1")
    n = t * t + 2 * t
    coef = 2.0 if variant == "sm" else 1.0

    def x(i):
        return i

    def adj(i, j):
        return t + i * t + j

    def y(j):
        return t + t * t + j

    rows = []
    rhs = []
    for i in range(t):
        for j in range(t):
            row = [(x(i), 1.0)] + [(adj(i, q), 1.0) for q in range(j, t)]
            row.append((y(j), -coef))
            rows.append(tuple(row))
            rhs.append(0.0)
    for j in range(t):
        row = [(adj(i, j), 1.0) for i in range(t)]
        row.append((y(j), -2.0))
        rows.append(tuple(row))
        rhs.append(0.0)
    rows.append(tuple((y(j), 1.0) for j in range(t)))
    rhs.append(1.0)
    objective = [1.0] * (t + t * t) + [0.0] * t
    return FactorLp(t, variant, n, tuple(rows), tuple(rhs), tuple(objective))


def check_solve_limit(t: int, solve_limit: int = SOLVE_LIMIT) -> None:
    """Raise ``LimitExceededError`` for a horizon the dense simplex refuses.

    Callers that build the primal only to solve it check first: the
    primal has t^2 rows, so building it at a large t exhausts memory.
    """
    if t > solve_limit:
        raise LimitExceededError(
            f"horizon {t} exceeds the dense-simplex limit {solve_limit}")


def solve_lp(lp: FactorLp, solve_limit: int = SOLVE_LIMIT) -> float:
    """Optimal objective by dense primal simplex with Bland's rule."""
    check_solve_limit(lp.horizon, solve_limit)
    A, b, c = lp.dense()
    value, _ = simplex.maximize(c, A, b)
    return value


def u_value(t: int, variant: str = "sm") -> float:
    """Closed-form LP optimum; exact integer powers keep it stable at t=200."""
    _check_variant(variant)
    a = 1 if variant == "sm" else 2
    if t < a:
        raise DomainError(f"u(t) for variant {variant!r} needs t >= {a}")
    num = 2 * (t - a) ** t
    den = t ** t - (t - a) ** t
    return 2.0 + num / den


def u_limit(variant: str = "sm") -> float:
    _check_variant(variant)
    return 2.0 + 2.0 / (math.e - 1.0) if variant == "sm" else 2.0 + 2.0 / (math.e ** 2 - 1.0)


def approximation_factor(t: int, variant: str = "sm") -> float:
    """1/u(t); at least 0.316 (sm) / 0.43 (gc) for every t in domain."""
    return 1.0 / u_value(t, variant)


def limit_factor(variant: str = "sm") -> float:
    return 1.0 / u_limit(variant)


@dataclass(frozen=True)
class DualCertificate:
    """Closed-form dual solution (F, c, u) proving the LP optimum.

    The geometric profile F_{i,j} ~ (t/(t-a))^{j-1} is normalized so
    every dual row holds with equality, which pins u at the closed-form
    optimum; the commonly quoted 1/(1+t(e-1))-style normalizer is the
    t->infinity limit of this one and undershoots row (3) at finite t.
    """

    horizon: int
    variant: str
    F: np.ndarray
    c: np.ndarray
    u: float


def dual_certificate(t: int, variant: str = "sm") -> DualCertificate:
    _check_variant(variant)
    a = 1 if variant == "sm" else 2
    if t < a + 1:
        raise DomainError(f"dual certificate for {variant!r} needs t >= {a + 1}")
    D = t ** t - (t - a) ** t
    scale = float(a)
    f_row = [scale * t ** j * (t - a) ** (t - 1 - j) / D for j in range(t)]
    F = np.array([f_row] * t)
    c = np.array([1.0 - (t ** (j + 1) - (t - a) ** (j + 1)) * (t - a) ** (t - 1 - j) / D
                  for j in range(t)])
    u = 2.0 + 2.0 * (t - a) ** t / D
    return DualCertificate(t, variant, F, c, u)


@dataclass(frozen=True)
class FeasibilityResult:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_dual_feasible(cert: DualCertificate, t: int | None = None,
                         variant: str | None = None, tol: float = 1e-9
                         ) -> FeasibilityResult:
    """Check every dual row within tol, reporting each violated row."""
    t = cert.horizon if t is None else t
    variant = cert.variant if variant is None else _check_variant(variant)
    F, c, u = cert.F, cert.c, cert.u
    if F.shape != (t, t) or c.shape != (t,):
        raise ValidationError("certificate dimensions do not match t")
    bad = []
    for i in range(t):
        for j in range(t):
            lhs = F[i, :j + 1].sum() + c[j]
            if lhs < 1.0 - tol:
                bad.append(f"cover row (i={i + 1}, j={j + 1}): {lhs:.12f} < 1")
    coef = 2.0 if variant == "sm" else 1.0
    for j in range(t):
        lhs = coef * F[:, j].sum() + 2.0 * c[j]
        if lhs > u + tol:
            bad.append(f"budget row (j={j + 1}): {lhs:.12f} > u={u:.12f}")
    for i in range(t):
        lhs = F[i, :].sum()
        if lhs < 1.0 - tol:
            bad.append(f"mass row (i={i + 1}): {lhs:.12f} < 1")
    if F.min() < -tol or c.min() < -tol or u < -tol:
        bad.append("negative entry")
    return FeasibilityResult(not bad, tuple(bad))


def primal_embedding(t: int, variant: str, e_aug, e_adj, e_new, e_succ_t: float
                     ) -> tuple[np.ndarray, float]:
    """Normalized expectation vector for the horizon-t primal.

    e_aug maps (t, i) to E[augmenting first selected in round i], e_adj
    maps (t, i, j), e_new is the per-round E[new successes] list; all
    are divided by E[successes at horizon t].  Returns (x, objective).
    """
    if e_succ_t <= 0:
        raise ValidationError("embedding needs a positive success expectation")
    lp = build_primal(t, variant)
    x = np.zeros(lp.num_vars)
    for i in range(t):
        x[lp.x(i)] = e_aug.get((t, i + 1), 0.0) / e_succ_t
        for j in range(t):
            x[lp.adj(i, j)] = e_adj.get((t, i + 1, j + 1), 0.0) / e_succ_t
    for j in range(t):
        x[lp.y(j)] = e_new[j] / e_succ_t
    objective = float(np.dot(lp.dense()[2], x))
    return x, objective
