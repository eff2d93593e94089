"""Command-line interface.

Subcommands: solve (oracle or closed form only), run (distributed run plus
report, discrete or continuous), check (assumption certificate), gen
(scenario generator).  Exit codes: 0 success, 2 validation failure or
file error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import rootfind, scenario
from .criticality import column_ccf
from .criticality import eval_surrogate  # noqa: F401  perfbench counts calls of cli.eval_surrogate
from .netgraph import check_window_connectivity  # noqa: F401  perfbench wraps it under cli
from .protocol import run_protocol

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _load(args: argparse.Namespace) -> scenario.ScenarioConfig:
    # each flag that is set replaces the document's key before the parser reads it
    flags = {"max_rounds": args.max_rounds, "seed": args.seed}
    return scenario.load_scenario(args.config, **{k: v for k, v in flags.items() if v is not None})


def _emit(obj: str, quiet: bool) -> None:
    if not quiet:
        print(obj)


def cmd_solve(args: argparse.Namespace) -> int:
    config = _load(args)
    solution = (scenario.continuous_closed_form(config) if config.mode == "continuous"
                else scenario.oracle_summary(config))
    _emit(scenario.report_json(solution), args.quiet)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _load(args)
    if args.trace is None:
        _, report = scenario.run_scenario(config, record_trace=False)
    else:
        # the CSV is opened before the run and written chunk by chunk as it goes
        with scenario.TraceWriter(args.trace, scenario.region_ids(config)) as writer:
            _, report = scenario.run_scenario(config, record_trace=False, sinks=(writer,))
    _emit(scenario.report_json(report), args.quiet)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_check(args: argparse.Namespace) -> int:
    config = _load(args)
    inst = scenario.build_instance(config)
    probe = run_protocol(dataclasses.replace(inst, max_rounds=min(500, config.max_rounds),
                                             convergence_window=None))
    ccf = column_ccf(*scenario.load_columns(config))
    cert = rootfind.certify(inst, ccf, config.deficit, config.max_rounds, probe)
    _emit(str(cert), args.quiet)
    return EXIT_OK if cert.passed else EXIT_VALIDATION


def cmd_gen(args: argparse.Namespace) -> int:
    config = scenario.generate_scenario(
        n_regions=args.regions,
        loads_per_region=args.loads,
        seed=args.seed,
        deficit_fraction=args.deficit_fraction,
        graph=args.graph,
    )
    scenario.dump_scenario(config, args.output)
    _emit(f"wrote {args.output}", args.quiet)
    return EXIT_OK


@functools.cache  # built on the first main() call, not at import
def build_parser() -> argparse.ArgumentParser:
    # --quiet is accepted before and after the subcommand; it has no
    # default of its own, so a subcommand that omits it keeps the value
    # main() starts from
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress stdout reports",
    )
    parser = argparse.ArgumentParser(
        prog="loadshed",
        description="Distributed priority-based load shedding simulator",
        parents=[quiet],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="scenario JSON path")
        p.add_argument("--max-rounds", type=int, default=None, dest="max_rounds")
        p.add_argument("--seed", type=int, default=None)

    p_solve = sub.add_parser("solve", parents=[quiet], help="centralized oracle solution only")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_run = sub.add_parser(
        "run", parents=[quiet], help="full distributed run plus report (discrete or continuous)"
    )
    add_common(p_run)
    p_run.add_argument("--trace", default=None, help="write per-round CSV here")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", parents=[quiet], help="verify run assumptions numerically")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("gen", parents=[quiet], help="generate a random scenario")
    p_gen.add_argument("--regions", type=int, default=4)
    p_gen.add_argument("--loads", type=int, default=100)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--deficit-fraction", type=float, default=0.4)
    p_gen.add_argument("--graph", default="line",
                       choices=["line", "line-periodic", "random-periodic", "random"])
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv, argparse.Namespace(quiet=False))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so it goes first
        # reader gone (Python docs, "Note on SIGPIPE"): the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as exc:  # ScenarioError, InfeasibleError: ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
