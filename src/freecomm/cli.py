"""Command-line front end.

Every subcommand embeds its full configuration and the package version in
the report it emits, draws all randomness from the single --seed flag, and
exits 0 on success, 1 when a mathematical check fails, 2 on usage or input
errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import __version__
from .algebra import verify_free_commutator_identity
from .catalog import FINITE_GROUPS, load_unitary_catalog, unitary_group_catalog
from .discrete import MatrixGroup, gamma_filter, group_closure
from .dynamics import EXACT_SLACK, MATRIX_SLACK, decay_curve_exact, decay_curve_matrix
from .groups import load_finite_group
from .matrices import freeness_trial, sample_cue, subseed, unitary_with_trace
from .mixed import MixedWord, is_mixed_identity, mixed_identity_scan, parse_mixed_word
from .reporting import emit_json, emit_text


class UsageError(Exception):
    pass


class CheckFailed(Exception):
    pass


def _config(args: argparse.Namespace) -> dict:
    """Every parsed option but ``--out``, in the parser's order: rerunning
    this configuration reproduces the report."""
    cfg = {"subcommand": args.command, "version": __version__}
    cfg.update((k, v) for k, v in vars(args).items() if k not in ("command", "func", "out"))
    return cfg


def _at_least(cast, least, what: str):
    """An argparse type: ``cast(text)``, at least ``least`` and so not NaN."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan
        if not value >= least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _at_least(int, 1, "a positive integer")
_nonnegative_int = _at_least(int, 0, "a nonnegative integer")
_nonnegative_float = _at_least(float, 0, "a nonnegative number")


def _parse_grid(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"malformed grid {text!r}") from exc
    if not values:
        raise UsageError("grid must contain at least one value")
    for v in values:
        if not -1.0 < v < 1.0:
            raise UsageError(f"grid value {v} outside (-1, 1)")
    return values


# -- subcommands -----------------------------------------------------------------


def cmd_verify_identity(args) -> int:
    alphas = _parse_grid(args.alpha_grid)
    betas = _parse_grid(args.beta_grid)
    checks = [verify_free_commutator_identity(a, b) for a in alphas for b in betas]
    passed = all(chk.proved for chk in checks)
    payload = {
        "config": _config(args),
        # the exact trace is real; lhs keeps the report's (re, im) pair
        "results": [
            {"alpha": chk.alpha, "beta": chk.beta, "lhs": [chk.lhs, 0.0], "rhs": chk.rhs,
             "deviation": chk.deviation}
            for chk in checks
        ],
        "max_deviation": max(chk.deviation for chk in checks),
        "pass": passed,
    }
    emit_json(payload, args.out)
    return 0 if passed else 1


def cmd_dynamics(args) -> int:
    if args.require_contraction and args.alpha <= 0.75:
        raise UsageError("--require-contraction needs alpha > 3/4")
    if not -1.0 < args.alpha < 1.0:
        raise UsageError("alpha must lie strictly inside (-1, 1)")
    if args.model == "exact":
        slack = EXACT_SLACK if args.tol is None else args.tol
        report = decay_curve_exact(args.alpha, args.n_max, slack=slack)
    else:
        if args.n < 2:
            raise UsageError("the matrix model needs --n >= 2")
        slack = MATRIX_SLACK if args.tol is None else args.tol
        u, _ = unitary_with_trace(args.alpha, args.n, subseed(args.seed, 0))
        v = sample_cue(args.n, subseed(args.seed, 1))
        report = decay_curve_matrix(u, v, args.n_max, slack=slack)
        report.descriptor["seed"] = args.seed
    payload = {
        "config": _config(args),
        "report": report.to_json_dict(),
    }
    if args.format == "csv":
        header = f"# config: {payload['config']}\n"
        emit_text(header + report.to_csv_text(), args.out)
    else:
        emit_json(payload, args.out)
    if args.model == "exact" and not report.all_in_bounds:
        return 1
    return 0


def cmd_zassenhaus(args) -> int:
    if args.catalog is None:
        catalog = unitary_group_catalog()
    else:
        try:
            catalog = load_unitary_catalog(args.catalog)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"unreadable catalog {args.catalog}: {exc}") from exc
    too_many = sorted(name for name, gens in catalog.items() if len(gens) > args.cap)
    if too_many:
        raise UsageError(f"--cap {args.cap} is smaller than the generating set of {too_many}")
    out_dir = Path(args.out)
    failed = []
    for name in sorted(catalog):
        gens = catalog[name]
        closed = group_closure(list(gens), cap=args.cap)
        payload = {"config": _config(args), "entry": name,
                   "closed": isinstance(closed, MatrixGroup)}
        if not payload["closed"]:
            # the witness element is a matrix and stays out of the report
            payload["non_closure"] = {k: v for k, v in vars(closed).items() if k != "element"}
            failed.append(name)
        else:
            rep = gamma_filter(closed, args.t)
            payload["filter"] = rep.to_json_dict()
            if args.t == 0.5 and not (rep.is_abelian and rep.is_normal):
                failed.append(name)
        emit_json(payload, out_dir / f"{name}.json")
    sys.stdout.write(
        f"zassenhaus: {len(catalog)} entries, {len(failed)} failed -> {out_dir}\n"
    )
    return 1 if failed else 0


def cmd_mif(args) -> int:
    if args.group is not None:
        try:
            group = load_finite_group(args.group)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"unreadable group file {args.group}: {exc}") from exc
    else:
        if args.group_name not in FINITE_GROUPS:
            raise UsageError(f"unknown group name {args.group_name!r}; "
                             f"options: {sorted(FINITE_GROUPS)}")
        group = FINITE_GROUPS[args.group_name]()

    exp = group.exponent()
    exp_word = MixedWord.t_power(group, exp)
    if not is_mixed_identity(exp_word).is_identity:
        raise CheckFailed(f"t^{exp} must be an identity for {group.name}")

    scan = mixed_identity_scan(group, args.depth, args.exp_bound)

    word_checks = []
    for literal in args.word or []:
        try:
            word = parse_mixed_word(group, literal)
        except (KeyError, ValueError) as exc:
            raise UsageError(f"bad word literal {literal!r}: {exc}") from exc
        verdict = is_mixed_identity(word)
        entry = {"word": str(word), "is_identity": verdict.is_identity}
        if not verdict.is_identity:
            if word.evaluate(verdict.witness) == group.identity:
                raise CheckFailed("witness failed re-verification")
            entry["witness"] = group.label(verdict.witness)
            entry["value"] = group.label(verdict.value)
        word_checks.append(entry)

    payload = {
        "config": _config(args),
        "group": {"name": group.name, "order": group.order, "exponent": exp},
        "exponent_word": {"word": str(exp_word), "is_identity": True},
        "scan": scan,
        "word_checks": word_checks,
        "note": f"no conclusion beyond depth {args.depth}, exponents up to {args.exp_bound}",
    }
    emit_json(payload, args.out)
    return 0


def cmd_freeness(args) -> int:
    results = []
    worst = 0.0
    for trial in range(args.trials):
        rep = freeness_trial(args.n, args.seed, trial)
        worst = max(worst, rep.d1, rep.d2)
        results.append({"trial": trial, **rep.to_json_dict()})
    payload = {
        "config": _config(args),
        "results": results,
        "max_deviation": worst,
        "pass": worst <= args.tol,
    }
    emit_json(payload, args.out)
    return 0 if worst <= args.tol else 1


# -- parser ----------------------------------------------------------------------

_DEFAULT_GRID = "0,0.25,-0.25,0.5,-0.5,0.75,-0.75,0.9"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freecomm",
        description="Commutator contraction checks: exact trace identities, "
        "decay curves, discreteness filtrations, mixed identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identity", help="exact commutator trace identity on a grid")
    p.add_argument("--alpha-grid", default=_DEFAULT_GRID, help="comma-separated traces for u")
    p.add_argument("--beta-grid", default=_DEFAULT_GRID, help="comma-separated traces for v")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_verify_identity)

    p = sub.add_parser("dynamics", help="decay curve of the nested commutator words")
    p.add_argument("--alpha", type=float, required=True, help="trace of u")
    p.add_argument("--n-max", type=_positive_int, default=6, help="last word index")
    p.add_argument("--model", choices=["exact", "matrix"], default="exact")
    p.add_argument("--n", type=_positive_int, default=256, help="matrix dimension (matrix model)")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed (matrix model)")
    p.add_argument("--tol", type=_nonnegative_float, default=None, help="bound slack override")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--require-contraction", action="store_true",
                   help="reject alpha <= 3/4 (no contraction guarantee)")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("zassenhaus", help="closure + short-element filtration per catalog entry")
    p.add_argument("--catalog", default=None, help="catalog JSON (bundled if omitted)")
    p.add_argument("--t", type=_nonnegative_float, default=0.5, help="length threshold")
    p.add_argument("--cap", type=_positive_int, default=10_000, help="closure element cap")
    p.add_argument("--out", default="zassenhaus_reports", help="output directory")
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_zassenhaus)

    p = sub.add_parser("mif", help="mixed-identity scan and specific word checks")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--group", default=None, help="finite group JSON document")
    source.add_argument("--group-name", default="cyclic2", help="bundled group name")
    p.add_argument("--depth", type=_positive_int, required=True, help="max variable occurrences")
    p.add_argument("--exp-bound", type=_positive_int, default=2, help="max |exponent| enumerated")
    p.add_argument("--word", action="append", help="mixed-word literal to check (repeatable)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_mif)

    p = sub.add_parser("freeness", help="trace deviations of CUE-law CMV x Haar pairs")
    p.add_argument("--n", type=_positive_int, default=256, help="matrix dimension")
    p.add_argument("--trials", type=_positive_int, default=10, help="number of seeded pairs")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed")
    p.add_argument("--tol", type=_nonnegative_float, default=0.05, help="max allowed deviation")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_freeness)

    return parser


#: the parser ``main`` reuses: building it costs more than most parses
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
