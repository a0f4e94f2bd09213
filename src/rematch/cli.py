"""Command-line interface.

Subcommands: ``gen`` writes instance JSON, ``simulate`` runs Monte
Carlo policy simulation, ``verify`` checks coupling lemmas exactly, ``lp``
solves/validates the factor-revealing LPs, ``opt`` evaluates the exact
DP value, ``reproduce`` reruns the named acceptance bundles.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 resource limit exceeded.  Result lines go to stdout (deterministic
bytes for fixed seeds); timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import count

from .errors import (DomainError, LimitExceededError, RematchError, SolverError,
                     ValidationError)
from .model import INSTANCE_BYTES_LIMIT, Instance, check_edges_limit
from .montecarlo import monte_carlo
from .policies import PolicyId, opt_value
from .rng import sub_seed
from . import coupling, factorlp, generators, model, suites

_LEMMA_CHOICES = ("charging",) + tuple(
    "domination-" + variant.replace("_", "-") for variant in coupling.DOMINATION_VARIANTS)


class UsageError(RematchError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for failed checks
        raise UsageError(message)


def _dump(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True))
    out.write("\n")


def _add_family_args(p: _Parser) -> None:
    p.add_argument("--family", choices=("double-star", "separation",
                                        "complete-bipartite", "random"))
    p.add_argument("--instance", help="path to instance JSON")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--profile", choices=sorted(generators.PROFILES))
    p.add_argument("--gen-seed", type=int, default=0)


def _load_instance(args) -> Instance:
    if args.instance:
        with open(args.instance, "r", encoding="utf-8") as fh:
            # refuse a file no admitted instance needs; the parse counts objects
            size = os.fstat(fh.fileno()).st_size
            if size > INSTANCE_BYTES_LIMIT:
                raise LimitExceededError(f"{size} bytes exceed limit {INSTANCE_BYTES_LIMIT}")
            edges, others = count(1), count(1)

            def count_objects(pairs):  # refuse at the first object past its limit
                obj = dict(pairs)
                if "endpoints" in obj:
                    check_edges_limit(next(edges))
                elif next(others) > 2 * model.EDGES_LIMIT + 1:  # a matching's vertices, the top
                    raise LimitExceededError(f"over {2 * model.EDGES_LIMIT + 1} non-edge objects")
                return obj

            try:
                data = json.load(fh, object_pairs_hook=count_objects)
            except (ValueError, RecursionError) as exc:  # bad encoding, JSON or nesting
                raise UsageError(f"instance {args.instance} is not JSON: {exc}") from exc
        return Instance.from_json(data)
    if args.family == "double-star":
        return generators.gen_double_star(args.n, args.eps)
    if args.family == "separation":
        return generators.gen_separation()
    if args.family == "complete-bipartite":
        return generators.gen_complete_bipartite(args.n, args.p, args.rounds)
    if args.family == "random":
        if not args.profile:
            raise UsageError("--family random needs --profile")
        return generators.gen_random(args.profile, args.gen_seed)
    raise UsageError("provide --instance or --family")


def build_parser() -> _Parser:
    parser = _Parser(prog="rematch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    _add_family_args(p)
    p.add_argument("-o", "--out", help="output path (default stdout)")

    p = sub.add_parser("simulate", help="Monte Carlo policy simulation")
    _add_family_args(p)
    p.add_argument("--policy", required=True,
                   choices=[pid.value.replace("_", "-") for pid in PolicyId])
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--out")

    p = sub.add_parser("verify", help="check coupling lemmas")
    _add_family_args(p)
    p.add_argument("--count", type=int, default=1,
                   help="number of random instances when using --profile")
    p.add_argument("--lemma", choices=_LEMMA_CHOICES + ("all",), default="all")
    p.add_argument("--t", type=int, help="horizon (default: instance rounds)")

    p = sub.add_parser("lp", help="factor-revealing LP")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--variant", choices=("sm", "gc"), default="sm")
    p.add_argument("--solve", action="store_true")
    p.add_argument("--check-dual", action="store_true")

    p = sub.add_parser("opt", help="exact DP value")
    _add_family_args(p)
    p.add_argument("--commit", action="store_true")
    p.add_argument("--exhaustive", action="store_true",
                   help="disable maximal-action pruning")

    p = sub.add_parser("reproduce", help="rerun acceptance bundles")
    p.add_argument("--bundle", default="all",
                   choices=sorted(suites.BUNDLES) + ["all"])
    return parser


def _check_profile(profile: str, t: int | None, lemma: str | None, structure) -> None:
    """Refuse a horizon or domination variant that some draw of the profile
    would refuse, before the first of several reports: reports stream, so a
    refusal at a later draw would follow printed results.  Every draw has
    the first draw's structure, capacities in the profile's range and at
    least its fewest rounds."""
    prof = generators.PROFILES[profile]
    if t is not None and t > prof.rounds[0]:
        raise UsageError(f"horizon {t} exceeds {prof.rounds[0]}, the fewest rounds "
                         f"profile {profile} draws")
    if lemma not in (None, "charging") and any(
            lemma not in dict(coupling.kind_rules(structure, cap == 1).domination)
            for cap in prof.capacities):
        raise UsageError(f"domination variant {lemma!r} does not apply to every "
                         f"instance of profile {profile}")


def _run_verify(args, out) -> int:
    named = (None if args.lemma == "all" else
             args.lemma.removeprefix("domination-").replace("-", "_"))
    drawn = args.profile and not args.instance
    if drawn:
        if args.count < 1:
            raise UsageError("--count must be >= 1")
        # drawn one at a time, so reports stream and memory stays flat
        instances = (generators.gen_random(args.profile, sub_seed(args.gen_seed, i))
                     for i in range(args.count))
    else:
        instances = [_load_instance(args)]
    all_ok = True
    for i, inst in enumerate(instances):
        if drawn and i == 0 and args.count > 1:  # a single draw is checked as it runs
            _check_profile(args.profile, args.t, named, inst.structure)
        t = args.t if args.t is not None else inst.rounds
        lemmas = coupling.lemma_rules(inst).lemmas if named is None else [named]
        for lemma in lemmas:
            if lemma == "charging":
                report = coupling.verify_charging(inst, t)
            else:
                report = coupling.verify_domination(inst, t, lemma)
            all_ok &= report.verdict
            _dump(report.to_json(), out)
    return 0 if all_ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    out = sys.stdout
    try:
        if args.command == "gen":
            inst = _load_instance(args)
            text = json.dumps(inst.to_json(), sort_keys=True)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            else:
                out.write(text + "\n")
            return 0

        if args.command == "simulate":
            stats = monte_carlo(_load_instance(args), PolicyId(args.policy.replace("-", "_")),
                                args.trials, args.seed)
            text = stats.to_csv() if args.format == "csv" else stats.dumps() + "\n"
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                out.write(text)
            return 0

        if args.command == "verify":
            return _run_verify(args, out)

        if args.command == "lp":
            do_solve = args.solve or not args.check_dual
            do_dual = args.check_dual or not args.solve
            row = {"t": args.t, "variant": args.variant,
                   "primal_opt": None, "dual_u": None, "factor": None,
                   "feasible": None}
            if do_solve:
                factorlp.check_primal_size(args.t)
                row["primal_opt"] = factorlp.solve_lp(
                    factorlp.build_primal(args.t, args.variant))
            if do_dual:
                try:
                    cert = factorlp.dual_certificate(args.t, args.variant)
                except OverflowError as exc:  # the certificate refuses t >= 144
                    raise LimitExceededError(
                        f"dual certificate for t={args.t} overflows a float: {exc}") from exc
                row["dual_u"] = cert.u
                row["factor"] = 1.0 / cert.u
                row["feasible"] = bool(factorlp.verify_dual_feasible(cert))
            elif row["primal_opt"] is not None and row["primal_opt"] > 0:
                row["factor"] = 1.0 / row["primal_opt"]
            _dump(row, out)
            return 0 if row["feasible"] in (None, True) else 2

        if args.command == "opt":
            inst = _load_instance(args)
            value = opt_value(inst, commit=args.commit, prune=not args.exhaustive)
            _dump({"value": value, "commit": args.commit,
                   "exhaustive": args.exhaustive}, out)
            return 0

        if args.command == "reproduce":
            names = list(suites.BUNDLES) if args.bundle == "all" else [args.bundle]
            all_ok = True
            for name in names:  # in criterion order
                t0 = time.perf_counter()
                res = suites.BUNDLES[name]()
                print(f"# {name} took {time.perf_counter() - t0:.1f}s", file=sys.stderr)
                all_ok &= res.ok
                _dump(res.to_json(), out)
            return 0 if all_ok else 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except LimitExceededError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DomainError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
