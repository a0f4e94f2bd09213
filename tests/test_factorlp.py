import dataclasses
import math
from fractions import Fraction

import pytest
from scipy.optimize import linprog

from oracles import certify_fraction, dual_violations_loop
from rematch.coupling import coupling_expectations
from rematch.errors import DomainError, SolverError
from rematch.factorlp import (SOLVE_LIMIT, DualCertificate, FactorLp, _certify,
                              _exact_certificate, approximation_factor, build_primal,
                              dual_certificate, limit_factor, primal_embedding, solve_lp,
                              u_limit, u_value, verify_dual_feasible)
from rematch.generators import gen_random
from rematch.rng import sub_seed


def dense(lp):
    """(A, b, c) as nested lists, for the HiGHS oracle."""
    A = [[0.0] * lp.num_vars for _ in lp.rows]
    for r, row in enumerate(lp.rows):
        for var, coef in row:
            A[r][var] += coef
    return A, list(lp.rhs), list(lp.objective)


def scipy_optimum(lp):
    A, b, c = dense(lp)
    res = linprog([-v for v in c], A_ub=A, b_ub=b, bounds=[(0, None)] * lp.num_vars,
                  method="highs")
    assert res.success
    return -res.fun


def exact_u(t, variant):
    """2 + 2 (t-a)^t / (t^t - (t-a)^t) as a Fraction, for every t >= 1."""
    a = 1 if variant == "sm" else 2
    return 2 + Fraction(2 * (t - a) ** t, t ** t - (t - a) ** t)


ALL_LPS = [(t, variant) for variant in ("sm", "gc") for t in range(1, SOLVE_LIMIT + 1)]


def test_build_primal_shapes():
    lp = build_primal(1, "sm")
    assert lp.num_vars == 3
    assert len(lp.rows) == 3
    lp5 = build_primal(5, "gc")
    assert lp5.num_vars == 5 * 5 + 10
    assert len(lp5.rows) == 25 + 5 + 1
    with pytest.raises(DomainError):
        build_primal(0, "sm")


def test_t1_optima():
    assert solve_lp(build_primal(1, "sm")) == pytest.approx(2.0, abs=1e-9)
    # the greedy-commit variant is capped by X_1 + X_{1,1} <= Y_1 <= 1
    gc1 = build_primal(1, "gc")
    assert solve_lp(gc1) == pytest.approx(1.0, abs=1e-9)
    assert scipy_optimum(gc1) == pytest.approx(1.0, abs=1e-7)


def test_solve_lp_is_the_exact_closed_form_u():
    # every t in 1..SOLVE_LIMIT, gc t = 1 (optimum 1) included
    for t, variant in ALL_LPS:
        assert solve_lp(build_primal(t, variant)) == float(exact_u(t, variant))
        assert u_value(t, variant) == solve_lp(build_primal(t, variant)), (variant, t)


def test_solve_lp_matches_scipy_on_factor_lps():
    for t, variant in ALL_LPS:
        lp = build_primal(t, variant)
        assert solve_lp(lp) == pytest.approx(scipy_optimum(lp), abs=1e-7)


def _tampered(lp):
    """LPs whose optimum the closed-form pair no longer certifies."""
    t = lp.horizon
    positive = lp.adj(0, 0) if t > 1 else lp.x(0)  # a variable with x > 0
    zero = lp.adj(0, t - 1)                         # X_{1,t} = 0
    slack = t * t + t - 1                           # budget row t, multiplier c_t = 0

    def objective(var, value):
        return lp.objective[:var] + (value,) + lp.objective[var + 1:]

    return {
        "tightened last-row rhs": dataclasses.replace(lp, rhs=lp.rhs[:-1] + (0.5,)),
        # breaks only primal feasibility: b.y and A^T y do not change
        "tightened zero-multiplier row": dataclasses.replace(
            lp, rhs=lp.rhs[:slack] + (-3.0,) + lp.rhs[slack + 1:]),
        "loosened last-row rhs": dataclasses.replace(lp, rhs=lp.rhs[:-1] + (2.0,)),
        "dropped row": dataclasses.replace(lp, rows=lp.rows[1:], rhs=lp.rhs[1:]),
        "halved objective entry": dataclasses.replace(
            lp, objective=objective(positive, lp.objective[positive] / 2)),
        "raised objective on a zero variable": dataclasses.replace(
            lp, objective=objective(zero, 2.0)),
    }


def test_tampered_lp_raises_solver_error():
    for t, variant in ((1, "sm"), (1, "gc"), (2, "gc"), (6, "sm"), (6, "gc")):
        for name, lp in _tampered(build_primal(t, variant)).items():
            with pytest.raises(SolverError):
                value = solve_lp(lp)
                pytest.fail(f"{name} (t={t}, {variant}) returned {value}")


def _outcome(check, lp, x, y, u):
    """None if ``check`` accepts the pair, else its ``SolverError`` message."""
    try:
        check(lp, x, y, u)
    except SolverError as err:
        return str(err)
    return None


def _set_coef(lp, r, k, value):
    rows = list(lp.rows)
    row = list(rows[r])
    row[k] = (row[k][0], value)
    rows[r] = tuple(row)
    return dataclasses.replace(lp, rows=tuple(rows))


def _nudged(lp):
    """Copies of ``lp`` with one entry moved one ulp up or down: the first and
    last coefficient and the rhs of a cover row, a budget row, the zero-multiplier
    budget row and the last row, and a unit and a zero objective entry."""
    t = lp.horizon
    out = {}
    for name, r in (("cover", t * t - 1), ("budget", t * t), ("slack", t * t + t - 1),
                    ("last", t * t + t)):
        for way, to in (("up", math.inf), ("down", -math.inf)):
            for k in (0, len(lp.rows[r]) - 1):
                coef = math.nextafter(lp.rows[r][k][1], to)
                out[f"{name} row coef {k} {way}"] = _set_coef(lp, r, k, coef)
            rhs = lp.rhs[:r] + (math.nextafter(lp.rhs[r], to),) + lp.rhs[r + 1:]
            out[f"{name} row rhs {way}"] = dataclasses.replace(lp, rhs=rhs)
    for var in (lp.x(0), lp.y(0)):
        for way, to in (("up", math.inf), ("down", -math.inf)):
            objective = list(lp.objective)
            objective[var] = math.nextafter(objective[var], to)
            out[f"objective {var} {way}"] = dataclasses.replace(
                lp, objective=tuple(objective))
    return out


def test_integer_certificate_matches_the_fraction_oracle():
    for t, variant in ALL_LPS:
        x, y, u = _exact_certificate(t, variant)
        lp = build_primal(t, variant)
        assert _outcome(_certify, lp, x, y, u) is None, (variant, t)
        assert _outcome(certify_fraction, lp, x, y, u) is None, (variant, t)
    verdicts = set()
    for t in (1, 2, 6, 12):
        for variant in ("sm", "gc"):
            x, y, u = _exact_certificate(t, variant)
            lp = build_primal(t, variant)
            for name, bad in _tampered(lp).items():
                got = _outcome(_certify, bad, x, y, u)
                assert got is not None, (name, variant, t)
                assert got == _outcome(certify_fraction, bad, x, y, u), (name, variant, t)
            for name, bad in _nudged(lp).items():
                got = _outcome(_certify, bad, x, y, u)
                assert got == _outcome(certify_fraction, bad, x, y, u), (name, variant, t)
                verdicts.add(got is None)
    assert verdicts == {True, False}


def test_one_ulp_flips_the_verdict_on_a_tight_row():
    # sum_j Y_j <= 1 is tight with multiplier u: one ulp less breaks the
    # primal, one ulp more moves b.y off u; the zero-multiplier row has slack
    for t in (2, 6, 12):
        x, y, u = _exact_certificate(t, "sm")
        nudged = _nudged(build_primal(t, "sm"))
        with pytest.raises(SolverError, match="primal point is infeasible"):
            _certify(nudged["last row rhs down"], x, y, u)
        with pytest.raises(SolverError, match="objectives differ"):
            _certify(nudged["last row rhs up"], x, y, u)
        _certify(nudged["slack row rhs up"], x, y, u)


def test_non_finite_entries_are_a_certificate_failure():
    lp = build_primal(3, "sm")
    for bad in (_set_coef(lp, 0, 0, math.inf),
                dataclasses.replace(lp, rhs=lp.rhs[:-1] + (math.nan,)),
                dataclasses.replace(lp, objective=(-math.inf,) + lp.objective[1:])):
        with pytest.raises(SolverError, match="non-finite"):
            solve_lp(bad)


def test_certify_rejects_negative_entries():
    # max x s.t. x <= 1, -x <= 0: y = (1, -1) meets A^T y >= c and b.y = 1
    # and fails only y >= 0
    lp = FactorLp(1, "sm", 1, (((0, 1.0),), ((0, -1.0),)), (1.0, 0.0), (1.0,))
    _certify(lp, [Fraction(1)], [Fraction(1), Fraction(0)], Fraction(1))
    with pytest.raises(SolverError):
        _certify(lp, [Fraction(1)], [Fraction(1), Fraction(-1)], Fraction(1))
    # max 0 s.t. x <= 1: x = -1 meets every row and fails only x >= 0
    lp = FactorLp(1, "sm", 1, (((0, 1.0),),), (1.0,), (0.0,))
    _certify(lp, [Fraction(0)], [Fraction(0)], Fraction(0))
    with pytest.raises(SolverError):
        _certify(lp, [Fraction(-1)], [Fraction(0)], Fraction(0))


def test_dual_certificate_domain():
    # every t >= 1, including where (t-a)^t is 0 (sm t = 1, gc t = 2) or -1 (gc t = 1)
    for t, variant in ((1, "sm"), (1, "gc"), (2, "gc")):
        cert = dual_certificate(t, variant)
        assert verify_dual_feasible(cert).ok, (variant, t)
        assert cert.u == solve_lp(build_primal(t, variant)), (variant, t)
    for variant in ("sm", "gc"):
        with pytest.raises(DomainError):
            dual_certificate(0, variant)
        with pytest.raises(DomainError):
            u_value(0, variant)


def test_float_certificate_is_the_exact_one_rounded_once():
    # y is F * t + c + [u] in build_primal's row order; F's rows are identical
    for variant in ("sm", "gc"):
        for t in range(1, 144):
            cert = dual_certificate(t, variant)
            _, y, u = _exact_certificate(t, variant)
            assert cert.F == (tuple(map(float, y[:t])),) * t, (variant, t)
            assert cert.c == tuple(map(float, y[t * t:t * t + t])), (variant, t)
            assert cert.u == float(u) == u_value(t, variant), (variant, t)


def test_certificates_feasible_and_optimal():
    cert = dual_certificate(5, "sm")
    assert verify_dual_feasible(cert).ok
    cert10 = dual_certificate(10, "gc")
    assert verify_dual_feasible(cert10).ok
    assert solve_lp(build_primal(10, "gc")) == pytest.approx(cert10.u, abs=1e-6)


def test_perturbed_certificate_reports_the_violated_row():
    cert = dual_certificate(4, "sm")
    F = [list(row) for row in cert.F]
    F[0][0] -= 0.5
    broken = DualCertificate(4, "sm", F, cert.c, cert.u)
    result = verify_dual_feasible(broken)
    assert not result.ok
    assert any("i=1" in v for v in result.violations)


def _perturbed(cert):
    """``cert`` and copies each with one fault: an entry of F or c moved down or
    up, F scaled just past the tolerance either way, u lowered, F negative."""
    t, variant = cert.horizon, cert.variant
    F = [list(row) for row in cert.F]

    def make(F2=F, c2=cert.c, u2=cert.u):
        return DualCertificate(t, variant, tuple(map(tuple, F2)), tuple(c2), u2)

    out = [cert, make(u2=cert.u * 0.999)]
    for scale in (1 - 2e-9, 1 - 5e-10, 1 + 3e-9):
        out.append(make([[f * scale for f in row] for row in F]))
    for k in range(t):
        F2 = [row[:] for row in F]
        F2[k][(7 * k) % t] -= 0.3
        out.append(make(F2))
        for delta in (-0.25, 0.5):
            c2 = list(cert.c)
            c2[k] += delta
            out.append(make(c2=c2))
    F2 = [row[:] for row in F]
    F2[0][t - 1] = -0.01
    out.append(make(F2))
    return out


def test_dual_check_matches_the_cubic_loop():
    kinds = set()
    for variant in ("sm", "gc"):
        for t in (3, 5, 8, 20):
            for cert in _perturbed(dual_certificate(t, variant)):
                violations = verify_dual_feasible(cert).violations
                assert violations == dual_violations_loop(cert), (variant, t)
                kinds |= {v.split(" row")[0] for v in violations}
    assert kinds == {"cover", "budget", "mass", "negative entry"}


def test_u_is_monotone_and_converges():
    for variant, lo in (("sm", 2), ("gc", 3)):
        values = [u_value(t, variant) for t in range(lo, 201)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert abs(values[-1] - u_limit(variant)) <= 0.02


def test_u_is_correctly_rounded():
    for variant, a in (("sm", 1), ("gc", 2)):
        for t in range(1, 201):
            exact = Fraction(2 * t ** t, t ** t - (t - a) ** t)
            assert u_value(t, variant) == float(exact), (variant, t)
            if t < 144:  # the float certificate refuses t >= 144 (OverflowError)
                assert dual_certificate(t, variant).u == float(exact), (variant, t)


def test_factor_values():
    assert u_value(2, "sm") == pytest.approx(8.0 / 3.0, abs=1e-15)
    assert approximation_factor(2, "sm") == pytest.approx(0.375, abs=1e-12)
    assert limit_factor("sm") == pytest.approx(1.0 / (2 + 2 / (math.e - 1)), abs=1e-15)
    assert limit_factor("sm") >= 0.316
    assert limit_factor("gc") == pytest.approx(1.0 / (2 + 2 / (math.e ** 2 - 1)), abs=1e-15)
    assert limit_factor("gc") >= 0.43
    for t in range(2, 60):
        assert approximation_factor(t, "sm") >= 0.316
        if t >= 3:
            assert approximation_factor(t, "gc") >= 0.43


def test_weak_duality():
    for variant in ("sm", "gc"):
        for t in range(1, 8):
            assert solve_lp(build_primal(t, variant)) <= dual_certificate(t, variant).u + 1e-6


def test_embedding_is_feasible_with_ratio_objective():
    inst = gen_random("unit-small", sub_seed(909, 2))
    s = coupling_expectations(inst)
    t = inst.rounds
    for variant in ("sm", "gc"):
        if variant not in s.references:
            continue
        succ = s.e_succ[variant][t - 1]
        if succ <= 1e-12:
            continue
        x, objective = primal_embedding(t, variant, s.e_aug[variant],
                                        s.e_adj[variant], s.e_new[variant], succ)
        lp = build_primal(t, variant)
        assert lp.check_point(x, tol=1e-9) == []
        assert objective == pytest.approx(s.e_opt_succ[t - 1] / succ, abs=1e-9)
        assert objective <= u_value(t, variant) + 1e-6
