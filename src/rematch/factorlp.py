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

:func:`solve_lp` runs no solver: it checks the closed-form primal point
(with r = (t-a)/t, Y_j = (1-r) r^(j-1) / (1-r^t), X_{i,j} = (2/t) Y_j
for j < t, X_{i,t} = 0, X_i = coef * Y_t) and those dual multipliers
against the LP's own rows in exact rational arithmetic.  A feasible pair
with equal objectives proves u optimal.  ``SOLVE_LIMIT`` stays: the
primal has t^2 + t + 1 rows, and the limit keeps building and checking
it fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, LimitExceededError, SolverError, ValidationError

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

    def check_point(self, x, tol: float = 1e-9) -> list[str]:
        """Row labels violated by x beyond tol (empty list = feasible)."""
        bad = [f"row {r}" for r, (lhs, b) in enumerate(zip(_row_sums(self.rows, x), self.rhs))
               if lhs > b + tol]
        bad += [f"nonneg {i}" for i in range(self.num_vars) if x[i] < -tol]
        return bad


def _row_sums(rows, x) -> list:
    """A x for sparse rows, in row order."""
    return [sum(coef * x[var] for var, coef in row) for row in rows]


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


def check_primal_size(t: int) -> None:
    """Raise ``LimitExceededError`` for a horizon whose primal is too large.

    Callers that build the primal only to solve it check first: the
    primal has t^2 rows, and the limit keeps it small.
    """
    if t > SOLVE_LIMIT:
        raise LimitExceededError(
            f"horizon {t} exceeds the primal-size limit {SOLVE_LIMIT}")


def _exact_certificate(t: int, variant: str) -> tuple[list, list, Fraction]:
    """Closed-form primal point x, dual row multipliers y and optimum u.

    Exact rationals; y follows :func:`build_primal`'s row order.  Python's
    0**0 == 1 makes the formulas hold at t = 1 and at gc t = 2 as well.
    """
    a = 1 if variant == "sm" else 2
    coef = 2 if variant == "sm" else 1
    r = Fraction(t - a, t)
    Y = [(1 - r) * r ** (j - 1) / (1 - r ** t) for j in range(1, t + 1)]
    row = [Fraction(2, t) * y for y in Y[:-1]] + [Fraction(0)]
    x = [coef * Y[-1]] * t + row * t + Y
    D = t ** t - (t - a) ** t
    F = [Fraction(a * t ** j * (t - a) ** (t - 1 - j), D) for j in range(t)]
    c = [1 - Fraction((t ** (j + 1) - (t - a) ** (j + 1)) * (t - a) ** (t - 1 - j), D)
         for j in range(t)]
    u = 2 + Fraction(2 * (t - a) ** t, D)
    return x, F * t + c + [u], u


def _certify(lp: FactorLp, x, y, u: Fraction) -> None:
    """Raise ``SolverError`` unless x and y are an optimal pair for ``lp`` with
    objective u, checked exactly on ``lp``'s coefficients as Fractions."""
    if len(x) != lp.num_vars or len(lp.objective) != lp.num_vars:
        raise SolverError("LP variables do not match the horizon")
    if len(y) != len(lp.rows) or len(lp.rhs) != len(lp.rows):
        raise SolverError("LP rows do not match the horizon")
    rows = [[(var, Fraction(coef)) for var, coef in row] for row in lp.rows]
    rhs = [Fraction(b) for b in lp.rhs]
    objective = [Fraction(c) for c in lp.objective]
    if min(x) < 0 or any(lhs > b for lhs, b in zip(_row_sums(rows, x), rhs)):
        raise SolverError("closed-form primal point is infeasible")
    reduced = [Fraction(0)] * lp.num_vars
    for row, y_r in zip(rows, y):
        for var, coef in row:
            reduced[var] += coef * y_r
    if min(y) < 0 or any(lhs < c for lhs, c in zip(reduced, objective)):
        raise SolverError("closed-form dual multipliers are infeasible")
    primal = sum(c * x_v for c, x_v in zip(objective, x))
    dual = sum(b * y_r for b, y_r in zip(rhs, y))
    if primal != u or dual != u:
        raise SolverError(f"objectives differ: primal {primal}, dual {dual}, u {u}")


def solve_lp(lp: FactorLp) -> float:
    """Optimal objective, proven by the exact closed-form primal-dual pair."""
    check_primal_size(lp.horizon)
    x, y, u = _exact_certificate(lp.horizon, lp.variant)
    _certify(lp, x, y, u)
    return float(u)


def u_value(t: int, variant: str = "sm") -> float:
    """Closed-form LP optimum u = 2 t^t / (t^t - (t-a)^t), computed as one
    int/int division, which Python rounds correctly at every t >= 1 (at gc
    t = 1, (t-a)^t = -1 gives the optimum 1)."""
    _check_variant(variant)
    if t < 1:
        raise DomainError("horizon t must be >= 1")
    a = 1 if variant == "sm" else 2
    return 2 * t ** t / (t ** t - (t - a) ** t)


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
    F: tuple[tuple[float, ...], ...]
    c: tuple[float, ...]
    u: float


def dual_certificate(t: int, variant: str = "sm") -> DualCertificate:
    _check_variant(variant)
    a = 1 if variant == "sm" else 2
    if t < a + 1:
        raise DomainError(f"dual certificate for {variant!r} needs t >= {a + 1}")
    if (t - 1) * math.log2(t) >= 1024:
        # F and c convert integers near t^(t-1) to float, which overflows
        # exactly from t = 144 in both variants; fail before building t^t
        raise OverflowError("int too large to convert to float")
    D = t ** t - (t - a) ** t
    scale = float(a)
    f_row = [scale * t ** j * (t - a) ** (t - 1 - j) / D for j in range(t)]
    F = (tuple(f_row),) * t
    c = tuple(1.0 - (t ** (j + 1) - (t - a) ** (j + 1)) * (t - a) ** (t - 1 - j) / D
              for j in range(t))
    u = 2 * t ** t / D
    return DualCertificate(t, variant, F, c, u)


@dataclass(frozen=True)
class FeasibilityResult:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_dual_feasible(cert: DualCertificate) -> FeasibilityResult:
    """Check every dual row of ``cert``'s own horizon and variant within
    1e-9, reporting each violated row, in O(t^2): each cover row's prefix
    of F extends the previous one."""
    t, variant, tol = cert.horizon, cert.variant, 1e-9
    F, c, u = cert.F, cert.c, cert.u
    if len(F) != t or any(len(row) != t for row in F) or len(c) != t:
        raise ValidationError("certificate dimensions do not match t")
    bad = []
    mass = []  # per row, the running prefix ends at the row total
    for i, row in enumerate(F):
        prefix = 0.0
        for j in range(t):
            prefix += row[j]
            lhs = prefix + c[j]
            if lhs < 1.0 - tol:
                bad.append(f"cover row (i={i + 1}, j={j + 1}): {lhs:.12f} < 1")
        mass.append(prefix)
    coef = 2.0 if variant == "sm" else 1.0
    for j in range(t):
        lhs = coef * sum(row[j] for row in F) + 2.0 * c[j]
        if lhs > u + tol:
            bad.append(f"budget row (j={j + 1}): {lhs:.12f} > u={u:.12f}")
    for i, lhs in enumerate(mass):
        if lhs < 1.0 - tol:
            bad.append(f"mass row (i={i + 1}): {lhs:.12f} < 1")
    if min(map(min, F)) < -tol or min(c) < -tol or u < -tol:
        bad.append("negative entry")
    return FeasibilityResult(not bad, tuple(bad))


def primal_embedding(t: int, variant: str, e_aug, e_adj, e_new, e_succ_t: float
                     ) -> tuple[list[float], float]:
    """Normalized expectation vector for the horizon-t primal.

    e_aug maps (t, i) to E[augmenting first selected in round i], e_adj
    maps (t, i, j), e_new is the per-round E[new successes] list; all
    are divided by E[successes at horizon t].  Returns (x, objective).
    """
    if e_succ_t <= 0:
        raise ValidationError("embedding needs a positive success expectation")
    lp = build_primal(t, variant)
    x = [0.0] * lp.num_vars
    for i in range(t):
        x[lp.x(i)] = e_aug.get((t, i + 1), 0.0) / e_succ_t
        for j in range(t):
            x[lp.adj(i, j)] = e_adj.get((t, i + 1, j + 1), 0.0) / e_succ_t
    for j in range(t):
        x[lp.y(j)] = e_new[j] / e_succ_t
    return x, sum(c * x_v for c, x_v in zip(lp.objective, x))
