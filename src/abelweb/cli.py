"""Command-line front end.

Every subcommand is one row of ``COMMANDS``: its help text, its options,
and one function of the parsed options that returns the command's
output, a JSON value or finished text (``bound`` and ``rank --tsv``).
``main`` parses, runs that function, and writes its result in one place,
``_emit``: to ``-o/--output`` where the command has one, else to
standard output.  So no command writes anything before its whole result
exists, and a failing command writes nothing but its error.

Exit codes: 0 success, 1 bad input or arguments, 2 mathematical
degeneracy (general position fails, a web is not semi-extremal, a
non-transverse arrangement, points off a common curve), 3 violation of a
proven identity (a bug, never caused by input).  Any other exception is
a bug as well and is not mapped to an exit code.

JSON is the only interchange format; rationals are "p/q" strings.  The
``rank`` table is also available as TSV for reading by eye.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import DegenerateWebError, InternalContradictionError
from .exactalg import Matrix, json_rational
from .webcore import ConstantWeb, degree_bound, h_cutoff, rho_bound
from .abelian import total_rank
from .grassmann import (
    MomentWebSpec,
    akivis_structure,
    fit_rnc,
    moment_web,
    points_from_json,
    recover_normal_form,
)
from .canonical import canonical_data
from .incidence import PlaneArrangement, tangent_incidence_web


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to exit code 1."""

    def error(self, message):
        raise ValueError(message)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(result, path: str | None) -> None:
    """Write finished text as it is, and a JSON value indented by 2."""
    text = result if isinstance(result, str) else json.dumps(result, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_taus(text: str) -> list:
    return [
        json_rational(part, f"taus entry {k}")
        for k, part in enumerate(text.split(","), start=1)
        if part.strip()
    ]


def _web(args) -> ConstantWeb:
    return ConstantWeb.from_json(_load_json(args.web))


def _bound(args) -> str:
    total = rho_bound(args.r, args.n, args.d)
    if not args.per_degree:
        return f"{total}\n"
    rows = "".join(f"{h}\t{degree_bound(args.r, args.n, args.d, h)}\n"
                   for h in range(h_cutoff(args.r, args.n, args.d)))
    return f"h\tbound\n{rows}total\t{total}\n"


def _pg(args) -> dict:
    ok, failing = _web(args).pg()
    return {"pg": ok, "failing": list(failing) if failing else None}


def _rank(args):
    report = total_rank(
        _web(args), allow_degenerate=args.allow_degenerate, paranoid=args.paranoid
    )
    return report.to_tsv() if args.tsv else report.to_json()


def _moment(args) -> dict:
    base = Matrix.from_json(_load_json(args.base), "base change") if args.base else None
    return moment_web(MomentWebSpec(args.r, args.n, _parse_taus(args.taus), base)).to_json()


def _akivis(args) -> dict:
    web = _web(args)
    if web.d < web.n + 1:
        raise ValueError(f"need at least n+1 = {web.n + 1} foliations")
    return {"basis": akivis_structure(web.foliations[: web.n + 1]).to_json()}


def _opt(*flags, **kwargs) -> tuple:
    return flags, kwargs


_R, _N, _D = (_opt(flag, type=int, required=True) for flag in ("-r", "-n", "-d"))
_WEB = _opt("--web", required=True)
_OUTPUT = _opt("-o", "--output")

# name: (help, options, function of the parsed options returning the output)
COMMANDS = {
    "bound": ("rank bounds from the closed formulas",
              [_R, _N, _D, _opt("--per-degree", action="store_true")], _bound),
    "pg": ("check the general-position condition", [_WEB], _pg),
    "rank": ("per-degree relation-space dimensions",
             [_WEB, _opt("--paranoid", action="store_true"),
              _opt("--allow-degenerate", action="store_true"),
              _opt("--tsv", action="store_true")], _rank),
    "moment": ("build a moment web",
               [_R, _N, _opt("--taus", required=True, help="comma-separated rationals"),
                _opt("--base", help="JSON file with an rn x rn base change"), _OUTPUT],
               _moment),
    "recover": ("recover basis and points from a web", [_WEB, _OUTPUT],
                lambda args: recover_normal_form(_web(args)).to_json()),
    "akivis": ("adapted basis of the first n+1 foliations", [_WEB, _OUTPUT], _akivis),
    "canonical": ("points and curve of a moment web",
                  [_opt("--moment", required=True, help="JSON moment-web spec"), _OUTPUT],
                  lambda args: canonical_data(
                      MomentWebSpec.from_json(_load_json(args.moment))).to_json()),
    "incidence": ("tangent web of a plane arrangement",
                  [_opt("--arrangement", required=True), _OUTPUT],
                  lambda args: tangent_incidence_web(
                      PlaneArrangement.from_json(_load_json(args.arrangement))).to_json()),
    "fit-rnc": ("fit a rational normal curve to points",
                [_opt("--points", required=True, help="JSON list of coordinate lists"),
                 _OUTPUT],
                lambda args: fit_rnc(points_from_json(_load_json(args.points))).to_json()),
}


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every subcommand in ``COMMANDS``, built once per process."""
    parser = _Parser(prog="abelweb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            command.add_argument(*flags, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _emit(COMMANDS[args.command][2](args), getattr(args, "output", None))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateWebError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 2
    except InternalContradictionError as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
