"""Command-line front end.

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


def _emit(data, path: str | None) -> None:
    text = json.dumps(data, indent=2) + "\n"
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


def _cmd_bound(args) -> int:
    total = rho_bound(args.r, args.n, args.d)
    if args.per_degree:
        sys.stdout.write("h\tbound\n")
        for h in range(h_cutoff(args.r, args.n, args.d)):
            sys.stdout.write(f"{h}\t{degree_bound(args.r, args.n, args.d, h)}\n")
        sys.stdout.write(f"total\t{total}\n")
    else:
        sys.stdout.write(f"{total}\n")
    return 0


def _cmd_pg(args) -> int:
    web = ConstantWeb.from_json(_load_json(args.web))
    ok, failing = web.pg()
    _emit({"pg": ok, "failing": list(failing) if failing else None}, None)
    return 0


def _cmd_rank(args) -> int:
    web = ConstantWeb.from_json(_load_json(args.web))
    report = total_rank(
        web, allow_degenerate=args.allow_degenerate, paranoid=args.paranoid
    )
    if args.tsv:
        sys.stdout.write(report.to_tsv())
    else:
        _emit(report.to_json(), None)
    return 0


def _cmd_moment(args) -> int:
    base = Matrix.from_json(_load_json(args.base), "base change") if args.base else None
    spec = MomentWebSpec(args.r, args.n, _parse_taus(args.taus), base)
    _emit(moment_web(spec).to_json(), args.output)
    return 0


def _cmd_recover(args) -> int:
    web = ConstantWeb.from_json(_load_json(args.web))
    _emit(recover_normal_form(web).to_json(), args.output)
    return 0


def _cmd_akivis(args) -> int:
    web = ConstantWeb.from_json(_load_json(args.web))
    if web.d < web.n + 1:
        raise ValueError(f"need at least n+1 = {web.n + 1} foliations")
    basis = akivis_structure(web.foliations[: web.n + 1])
    _emit({"basis": basis.to_json()}, args.output)
    return 0


def _cmd_canonical(args) -> int:
    spec = MomentWebSpec.from_json(_load_json(args.moment))
    _emit(canonical_data(spec).to_json(), args.output)
    return 0


def _cmd_incidence(args) -> int:
    arr = PlaneArrangement.from_json(_load_json(args.arrangement))
    _emit(tangent_incidence_web(arr).to_json(), args.output)
    return 0


def _cmd_fit_rnc(args) -> int:
    _emit(fit_rnc(points_from_json(_load_json(args.points))).to_json(), args.output)
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every subcommand, built once per process."""
    parser = _Parser(prog="abelweb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="rank bounds from the closed formulas")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--per-degree", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("pg", help="check the general-position condition")
    p.add_argument("--web", required=True)
    p.set_defaults(func=_cmd_pg)

    p = sub.add_parser("rank", help="per-degree relation-space dimensions")
    p.add_argument("--web", required=True)
    p.add_argument("--paranoid", action="store_true")
    p.add_argument("--allow-degenerate", action="store_true")
    p.add_argument("--tsv", action="store_true")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("moment", help="build a moment web")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--taus", required=True, help="comma-separated rationals")
    p.add_argument("--base", help="JSON file with an rn x rn base change")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("recover", help="recover basis and points from a web")
    p.add_argument("--web", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("akivis", help="adapted basis of the first n+1 foliations")
    p.add_argument("--web", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_akivis)

    p = sub.add_parser("canonical", help="points and curve of a moment web")
    p.add_argument("--moment", required=True, help="JSON moment-web spec")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("incidence", help="tangent web of a plane arrangement")
    p.add_argument("--arrangement", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_incidence)

    p = sub.add_parser("fit-rnc", help="fit a rational normal curve to points")
    p.add_argument("--points", required=True, help="JSON list of coordinate lists")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_fit_rnc)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
