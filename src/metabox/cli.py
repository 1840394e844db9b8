"""Command line interface: validate, enumerate, solve.

A solver's module is imported only by the ``solve`` that runs it, so
``validate`` and ``enumerate`` load neither numpy nor scipy.

Exit codes: 0 success, 1 usage, 2 problem-file validation failure, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import sys

from .blackbox import write_history
from .errors import ConfigurationError, KernelDomainError, MetaboxError, ProblemFileError
from .neighborhoods import default_meta_mapping
from .problem_file import parse_problem_file, read_json

USAGE_EXIT = 1
VALIDATION_EXIT = 2
RUNTIME_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metabox",
                     description="Constrained mixed-variable blackbox optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check a problem file")
    validate.add_argument("file")

    enumerate_cmd = sub.add_parser(
        "enumerate", help="list meta components with their dimensions")
    enumerate_cmd.add_argument("file")

    solve = sub.add_parser("solve", help="run a solver on a problem file")
    solve.add_argument("file")
    solve.add_argument("--solver", choices=("direct", "bo"), required=True)
    solve.add_argument("--budget", type=int, default=100)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", required=True, help="history CSV path")
    solve.add_argument("--aux-log", default=None,
                       help="per-iteration acquisition CSV (bo only)")
    solve.add_argument("--config", default=None, help="JSON file with solver options")
    solve.add_argument("--quiet", action="store_true",
                       help="suppress per-iteration progress lines")
    return parser


def _load_config(path, section, cls, check=None, **overrides):
    """``cls`` built from the ``section`` object of the JSON file at ``path``
    and ``overrides``, then passed to ``check``; a missing or malformed file
    or option, or an option of ``overrides`` (set on the command line), is a
    validation error at ``section``."""
    options = {}
    if path:
        document = read_json(path, section)
        if not isinstance(document, dict) or not isinstance(document.get(section, {}), dict):
            raise ProblemFileError("syntax", section, "solver options must be an object")
        options = dict(document.get(section, {}))
        unknown = set(options) - set(cls.__dataclass_fields__)
        if unknown:
            raise ProblemFileError("syntax", section, f"unknown options {sorted(unknown)}")
        fixed = set(options) & set(overrides)
        if fixed:
            raise ProblemFileError("syntax", section, f"options {sorted(fixed)} are set "
                                   "on the command line, not in the file")
    options.update(overrides)
    try:
        cfg = cls(**options)
        if check is not None:
            check(cfg)
    except (ConfigurationError, KernelDomainError) as exc:
        raise ProblemFileError("syntax", section, str(exc)) from exc
    return cfg


def _cmd_validate(args) -> int:
    parsed = parse_problem_file(args.file)
    print(f"ok: {len(parsed.domain.variables)} variables, "
          f"{len(parsed.system.constraints)} constraints")
    return 0


def _cmd_enumerate(args) -> int:
    parsed = parse_problem_file(args.file)
    domain, system = parsed.domain, parsed.system
    metas = domain.enumerate_meta_set()
    print(f"meta components: {len(metas)}")
    for xm in metas:
        print(f"{xm.rendered}: n^q={domain.dimension(xm, 'categorical')} "
              f"n^z={domain.dimension(xm, 'integer')} "
              f"n^c={domain.dimension(xm, 'continuous')} "
              f"|C^m|={len(system.acting_decreed_constraints(xm))}")
    return 0


def _cmd_solve(args) -> int:
    parsed = parse_problem_file(args.file)
    if args.budget < 1:
        raise ProblemFileError("syntax", "budget", "budget must be positive")
    if args.solver == "direct":
        from .direct_search import SearchConfig, run_direct_search

        cfg = _load_config(args.config, "direct", SearchConfig,
                           budget=args.budget, seed=args.seed)
        mapping = parsed.meta_mapping or default_meta_mapping(parsed.domain)
        result = run_direct_search(parsed.problem, cfg, meta_mapping=mapping,
                                   categorical_mapping=parsed.categorical_mapping,
                                   progress=not args.quiet)
    else:
        from .bayesian import BOConfig, run_bo, write_acquisition_log

        cfg = _load_config(args.config, "bo", BOConfig,
                           lambda cfg: cfg.kernel_setup(parsed.domain),
                           budget=args.budget, seed=args.seed)
        result = run_bo(parsed.problem, cfg, progress=not args.quiet)
        if args.aux_log:
            write_acquisition_log(result.acquisition_log, args.aux_log)
    write_history(parsed.domain, parsed.system, result.history, args.out)
    best = result.best
    if best is None:
        print("no evaluations performed")
    else:
        print(f"best objective {best.objective:.17g} feasible "
              f"{'true' if best.feasible else 'false'} "
              f"evaluations {result.evaluator.budget.used} "
              f"screened {result.evaluator.screened}")
    return 0


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve" and args.aux_log and args.solver != "bo":
            parser.error("--aux-log needs --solver bo")
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        return _cmd_solve(args)
    except ProblemFileError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except MetaboxError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
