"""Command-line frontend.

Subcommands: ``ode-table`` (constant grids), ``simulate`` (Monte Carlo
trials), ``compare`` (simulation vs solved trajectory), ``oracle`` (exact
small-instance expectations), ``dominance`` (paired strategy comparison).
Exit codes: 0 success, 1 validation error, 2 numerical failure.
``--verbose`` logs each subcommand's wall time at INFO.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
import time
from dataclasses import asdict

from .harness import (
    PROP_HAM,
    PROP_MIN_DEGREE,
    PROP_PM,
    TrialSpec,
    dominance_experiment,
    exact_small_oracle,
    run_trials,
    summary_to_json,
    tables_to_csv,
    tables_to_json,
    trajectory_check,
    write_text,
)
from .ode import (
    HAM_X_STOP_DEFAULT,
    PM_EPS_DEFAULT,
    OdeFailure,
    emit_tables,
    solve_ham,
    solve_min_degree,
    solve_pm,
)

log = logging.getLogger("semirandom")

_PROPERTY_TOKENS = {"mindeg": PROP_MIN_DEGREE, "pm": PROP_PM, "ham": PROP_HAM}


class CliError(Exception):
    """Validation problem surfaced to the user with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CliError(f"{self.prog}: {message}\n{self.format_usage()}")


def parse_property(token: str) -> tuple[str, int | None]:
    """'mindeg', 'mindeg<l>', 'pm' or 'ham' -> (property, l)."""
    m = re.fullmatch(r"mindeg(\d+)", token)
    if m:
        l = int(m.group(1))
        if l < 1:
            raise CliError(f"minimum-degree target must be >= 1, got {l}")
        return PROP_MIN_DEGREE, l
    if token in _PROPERTY_TOKENS:
        return _PROPERTY_TOKENS[token], None
    raise CliError(f"unknown property {token!r}; use mindeg[L], pm or ham")


def parse_range(token: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", token)
    if not m:
        raise CliError(f"bad range {token!r}; expected A..B")
    a, b = int(m.group(1)), int(m.group(2))
    if a < 1 or b < a:
        raise CliError(f"bad range {token!r}; need 1 <= A <= B")
    return range(a, b + 1)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="trial parallelism cap (default: machine cores)")
    p.add_argument("--verbose", action="store_true", help="verbose logging")


def build_parser() -> _Parser:
    parser = _Parser(prog="semirandom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("ode-table", help="solve the constant grids")
    t.add_argument("--property", required=True, choices=sorted(_PROPERTY_TOKENS))
    t.add_argument("--k-range", required=True, type=parse_range)
    t.add_argument("--l-range", type=parse_range, default=None)
    t.add_argument("--eps", type=float, default=PM_EPS_DEFAULT,
                   help="matching stop threshold (unsaturated fraction)")
    t.add_argument("--x-stop", type=float, default=HAM_X_STOP_DEFAULT,
                   help="path stop threshold (path fraction)")
    t.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(t)

    s = sub.add_parser("simulate", help="Monte Carlo trials of a strategy")
    s.add_argument("--property", required=True)
    s.add_argument("--strategy", default="s0")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--trials", type=int, default=20)
    s.add_argument("--threshold", type=float, default=None,
                   help="premature-stop level for pm/ham targets")
    s.add_argument("--no-complete", action="store_true",
                   help="skip the finishing phase after the threshold")
    s.add_argument("-o", "--out", default=None)
    _add_common(s)

    c = sub.add_parser("compare", help="simulate and report the trajectory gap")
    c.add_argument("--property", required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--trials", type=int, default=1)
    c.add_argument("--threshold", type=float, default=None)
    _add_common(c)

    o = sub.add_parser("oracle", help="exact small-instance expectation")
    o.add_argument("--property", required=True)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--k", type=int, required=True)
    _add_common(o)

    d = sub.add_parser("dominance", help="paired comparison against a baseline")
    d.add_argument("--property", default="mindeg1")
    d.add_argument("--baseline", required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--trials", type=int, default=200)
    _add_common(d)
    return parser


def _target(args) -> tuple[str, int | None]:
    prop, l = parse_property(args.property)
    if prop == PROP_MIN_DEGREE and l is None:
        raise CliError("the minimum-degree property needs a target, e.g. mindeg2")
    return prop, l


def _spec_from_args(args, record_trajectory=False, complete=True) -> TrialSpec:
    prop, l = _target(args)
    return TrialSpec(
        property=prop,
        n=args.n,
        k=args.k,
        l=l or 1,
        strategy=getattr(args, "strategy", "s0"),
        trials=args.trials,
        seed=args.seed,
        threshold=getattr(args, "threshold", None),
        record_trajectory=record_trajectory,
        complete=complete,
    )


def _cmd_ode_table(args) -> int:
    prop, _ = parse_property(args.property)
    records = emit_tables(prop, args.k_range, args.l_range, eps=args.eps, x_stop=args.x_stop)
    content = tables_to_csv(records) if args.format == "csv" else tables_to_json(records)
    if args.out:
        write_text(args.out, content)
        log.info("wrote %d records to %s", len(records), args.out)
    else:
        sys.stdout.write(content)
    return 0


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args, complete=not args.no_complete).validate()
    summary = run_trials(spec, workers=args.threads)
    content = summary_to_json(summary)
    if args.out:
        write_text(args.out, content)
    else:
        sys.stdout.write(content)
    return 0


def _cmd_compare(args) -> int:
    import json

    spec = _spec_from_args(args, record_trajectory=True, complete=False).validate()
    # solve first: a threshold the solver rejects fails before any trial runs
    stop = spec.effective_threshold()
    if spec.property == PROP_MIN_DEGREE:
        solution = solve_min_degree(spec.k, spec.l)
    else:
        solution = (solve_pm if spec.property == PROP_PM else solve_ham)(spec.k, stop)
    summary = run_trials(spec, workers=args.threads)
    report = trajectory_check(summary, solution)
    payload = {
        "property": spec.property,
        "n": spec.n,
        "k": spec.k,
        "solved_constant": solution.constant,
        "mean_threshold_rounds_per_n": summary.main.mean,
        "sup_distance": report.sup_distance,
        "per_coordinate": report.per_coordinate,
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    prop, l = _target(args)
    if prop == PROP_HAM:
        raise CliError("the oracle supports mindeg[L] and pm targets")
    result = exact_small_oracle(args.n, args.k, prop, l=l or 1)
    sys.stdout.write(f"{float(result.expectation)!r}\n")
    return 0


def _cmd_dominance(args) -> int:
    import json

    spec = _spec_from_args(args).validate()
    report = dominance_experiment(spec, args.baseline, workers=args.threads)
    sys.stdout.write(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "ode-table": _cmd_ode_table,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
    "dominance": _cmd_dominance,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("LOG_LEVEL", "WARNING").upper()
    try:
        args = build_parser().parse_args(argv)
        if args.verbose:
            level = "INFO"
        logging.basicConfig(level=getattr(logging, level, logging.WARNING))
        t0 = time.perf_counter()
        code = _COMMANDS[args.command](args)
        log.info("%s took %.3f s", args.command, time.perf_counter() - t0)
        return code
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 1
    except OdeFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
