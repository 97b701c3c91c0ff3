"""Command-line interface for the experiment drivers.

Usage: ``simplex-gibbs <command> [flags]`` with commands

  simulate      independent chains from a vertex start
  contraction   one-step contraction of E[squared distance]
  couple        burn-in plus collision stage against 1 - 8 n^-C
  connectivity  random edge schedules against 1 - 2 n^-epsilon
  lowerbound    coordinate-collection waiting time
  cftp          perfect samples via backward windows
  discrete      coupled mass-splitting chains with M balls

Each subcommand's parser sets ``run``, the call of its driver in
``experiments`` on the parsed arguments, next to its flags.  Every command
prints its SummaryReport (human lines, or one JSON object with ``--json``)
and optionally writes it to ``--out`` as indented JSON; ``couple``
additionally writes per-replica records next to ``--out`` with a
``.jsonl`` suffix.  ``--traces`` writes a replica,t,value CSV where the
value depends on the command (squared distance for chain commands, window
coalescence flags for cftp).

Exit codes: 0 success, 1 bad arguments, 2 a threshold check failed and
``--assert`` was given, 3 the perfect sampler exhausted its doubling
budget.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments as _ex
from .cftp import MAX_DOUBLINGS_DEFAULT, BudgetExhaustedError
from .chain import LambdaLaw

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # contract: argument errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _law(text: str) -> LambdaLaw:
    if text == "uniform":
        return LambdaLaw.uniform()
    if text.startswith("beta:"):
        try:
            a = float(text[len("beta:"):])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad beta parameter: {text!r}")
        return LambdaLaw.beta(a)
    raise argparse.ArgumentTypeError(f"law must be 'uniform' or 'beta:<a>', got {text!r}")


def _positive_float(text: str) -> float:
    x = float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return x


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help="write the report as JSON here")
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.add_argument(
        "--assert",
        dest="assert_",
        action="store_true",
        help="exit 2 if any threshold check fails",
    )


def build_parser() -> argparse.ArgumentParser:
    # each run looks _ex.run_* up when it is called, not when the parser is
    # built, so a wrapper bound over a driver afterwards still runs
    parser = _Parser(prog="simplex-gibbs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="independent chains from a vertex start")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=int, required=True, help="steps per replica")
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--law", type=_law, default=LambdaLaw.uniform())
    p.add_argument("--traces", default=None, help="write replica,t,value CSV here")
    _add_common(p)
    p.set_defaults(run=lambda a: _ex.run_simulate(
        a.n, a.T, a.replicas, a.seed, law=a.law, traces_path=a.traces
    ))

    p = sub.add_parser("contraction", help="one-step contraction ratio")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicas", type=int, default=10000)
    p.add_argument("--law", type=_law, default=LambdaLaw.uniform())
    _add_common(p)
    p.set_defaults(run=lambda a: _ex.run_contraction(a.n, a.replicas, a.seed, law=a.law))

    p = sub.add_parser("couple", help="burn-in plus collision stage")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--C", type=_positive_float, default=1.0, help="stage exponent")
    p.add_argument("--d", type=_positive_float, default=None, help="burn-in exponent (default 4C)")
    p.add_argument("--e", type=_positive_float, default=None, help="closeness exponent (default 2C)")
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--traces", default=None, help="write replica,t,value CSV here")
    _add_common(p)
    p.set_defaults(run=lambda a: _ex.run_couple(
        a.n, a.C, a.replicas, a.seed, d=a.d, e=a.e, traces_path=a.traces,
        records_path=f"{a.out}.jsonl" if a.out else None,
    ))

    p = sub.add_parser("connectivity", help="random edge schedule connectivity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=_positive_float, default=0.5)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--T", type=int, default=None, help="schedule length (default ceil((1/2+eps) n ln n))")
    _add_common(p)
    p.set_defaults(run=lambda a: _ex.run_connectivity(a.n, a.epsilon, a.trials, a.seed, T=a.T))

    p = sub.add_parser("lowerbound", help="coordinate-collection waiting time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    _add_common(p)
    p.set_defaults(run=lambda a: _ex.run_lower_bound(a.n, a.trials, a.seed))

    p = sub.add_parser("cftp", help="perfect samples via backward windows")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--max-doublings", type=int, default=MAX_DOUBLINGS_DEFAULT, help=argparse.SUPPRESS)
    p.add_argument("--traces", default=None, help="write replica,window,coalesced CSV here")
    _add_common(p)
    p.set_defaults(run=lambda a: _ex.run_cftp(
        a.n, a.samples, a.seed, max_doublings=a.max_doublings, traces_path=a.traces
    ))

    p = sub.add_parser("discrete", help="coupled mass-splitting chains")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True, help="number of balls")
    p.add_argument("--T", type=int, default=24, help="steps per replica")
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--traces", default=None, help="write replica,t,value CSV here")
    _add_common(p)
    p.set_defaults(run=lambda a: _ex.run_discrete(a.n, a.M, a.T, a.replicas, a.seed, traces_path=a.traces))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        report = args.run(args)
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print("\n".join(report.format_lines()))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.assert_ and not report.passed_all():
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
