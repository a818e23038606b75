"""Command-line front end.

Subcommands: eval, invert, table, residuals, experiment, bounds, geom.
Output is deterministic (no environment dependence, fixed 17-significant-digit
numbers in tables).  Exit codes: 0 success / suite all-pass, 1 computational
failure, suite failure or a reader that closed stdout early (``qcfun table ...
| head -1``, which ends without a traceback), 2 usage, domain or file error.

A command imports only the layers it runs: the parser needs none of them
(the bounds and experiment options are built only for their own command and
for the full help), a registry row loads its function's layer when it is
called, so ``eval --fn K`` loads the means layer alone, and the residual
suite, numpy and ``json`` load in the commands that use them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import qcfun as qc  # each public name loads its layer on first use

from .errors import DomainError, PolylineFormatError, QcfunError

USAGE_EXIT = 2
FAIL_EXIT = 1
_MAX_GRID_POINTS = 10 ** 6  # table and residuals --grid refuse a longer grid before building it


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# parameter flag -> help, in the order eval and table list them
_PARAM_FLAGS = {
    "r": "radius in (0,1)",
    "K": "dilatation",
    "a": "signature in (0, 1/2]; 1/2 when omitted",
    "t": "auxiliary argument t",
    "x": "real argument",
    "s": "argument s > 1",
}

# function registry, as the bounds catalog: name -> (flag names, function of
# those floats in that order); a table sweeps the last flag
_EVAL_FNS = {
    "mu": (("r",), lambda r: qc.mu(r)),
    "muA": (("a", "r"), lambda a, r: qc.mu_a(a, r)),
    "muADeriv": (("a", "r"), lambda a, r: qc.mu_a_derivative(a, r)),
    "K": (("r",), lambda r: qc.ellint_K(r)),
    "Kprime": (("r",), lambda r: qc.ellint_Kprime(r)),
    "phiK": (("K", "r"), lambda K, r: qc.phi_K(K, r).r),
    "phiA": (("a", "K", "r"), lambda a, K, r: qc.phi_aK(a, K, r).r),
    "eta": (("K", "t"), lambda K, t: qc.eta_K2(K, t)),
    "lambda": (("K",), lambda K: qc.lambda_of_K(K)),
    "schottky": (("t", "r"), lambda t, r: qc.schottky_psi(r, t)),
    "linearg": (("K", "x"), lambda K, x: qc.linearized_g(K, x)),
    "agmprod": (("r",), lambda r: qc.agm_product_p(r)),
    "gamma2": (("s",), lambda s: qc.grotzsch_gamma2(s)),
    "tau2": (("t",), lambda t: qc.teichmuller_tau2(t)),
}

_INVERT_FNS = {
    "mu": (("y",), lambda y: qc.mu_inv(y).r),
    "muA": (("a", "y"), lambda a, y: qc.mu_a_inv(a, y).r),
    "tau2": (("y",), lambda y: qc.tau2_inv(y)),
    "gamma2": (("y",), lambda y: qc.gamma2_inv(y)),
}


def _experiment_flags() -> dict:
    """Every experiment parameter name, typed by its default (float or int)."""
    from . import identities

    return {name: type(default) for fn in identities._EXPERIMENTS.values()
            for name, default in identities._experiment_defaults(fn).items()}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qcfun`` parser; the experiment and bounds options only where ``command`` is theirs or None.

    Those options are read off the residual suite and the bounds catalog,
    which no other command loads, and only their own command's help shows them.
    """
    parser = argparse.ArgumentParser(
        prog="qcfun",
        description="Special functions of plane quasiconformal map theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument("--fn", required=True, choices=sorted(_EVAL_FNS))

    p_inv = sub.add_parser("invert", help="invert mu, muA, tau2 or gamma2")
    p_inv.add_argument("--fn", required=True, choices=sorted(_INVERT_FNS))
    p_inv.add_argument("--y", type=float, required=True)
    p_inv.add_argument("--a", type=float, default=0.5, help="signature for muA (default 1/2)")

    p_table = sub.add_parser("table", help="sweep a function over a grid")
    p_table.add_argument("--fn", required=True, choices=sorted(_EVAL_FNS))
    p_table.add_argument("--from", dest="start", type=float, required=True)
    p_table.add_argument("--to", dest="stop", type=float, required=True)
    p_table.add_argument("--step", type=float, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    for p in (p_eval, p_table):
        for name, text in _PARAM_FLAGS.items():
            p.add_argument(f"--{name}", type=float, default=0.5 if name == "a" else None, help=text)

    p_res = sub.add_parser("residuals", help="run the identity suite")
    group = p_res.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", choices=("all",))
    group.add_argument("--case", action="append", help="case id (repeatable)")
    group.add_argument("--list", action="store_true", help="list case ids")
    p_res.add_argument("--grid", help="from:to:step override for the r/s axis")

    p_exp = sub.add_parser("experiment", help="open-problem observations (never asserted)")
    if command in (None, "experiment"):
        from .identities import EXPERIMENT_NAMES

        p_exp.add_argument("--name", required=True, choices=EXPERIMENT_NAMES)
        for name, kind in _experiment_flags().items():
            p_exp.add_argument(f"--{name}", type=kind)

    p_bounds = sub.add_parser("bounds", help="evaluate a catalog bound")
    if command in (None, "bounds"):
        from .bounds import BoundId, bound_signature

        group = p_bounds.add_mutually_exclusive_group(required=True)
        group.add_argument("--id", choices=sorted(b.value for b in BoundId))
        group.add_argument("--list", action="store_true")
        for name in dict.fromkeys(name for b in BoundId for name in bound_signature(b)):
            p_bounds.add_argument(f"--{name}", type=float)

    p_geom = sub.add_parser("geom", help="generate or check planar curves")
    geom_sub = p_geom.add_subparsers(dest="action", required=True)
    p_gen = geom_sub.add_parser("generate", help="write a polyline CSV")
    kind = p_gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--koch", action="store_true")
    kind.add_argument("--ngon", type=int)
    p_gen.add_argument("--level", type=int, default=4)
    p_gen.add_argument("--angle", type=float, default=60.0)
    p_gen.add_argument("--radius", type=float, default=1.0)
    p_gen.add_argument("--out", required=True)
    p_check = geom_sub.add_parser("check", help="estimate constants of a polyline CSV")
    p_check.add_argument("--in", dest="infile", required=True)
    p_check.add_argument("--property", required=True, choices=("ahlfors", "triangle", "boxdim"),
                         action="append", dest="properties")
    p_check.add_argument("--open", action="store_true",
                         help="treat the polyline as open (default: closed, except triangle)")
    p_check.add_argument("--scales", type=int, default=5, help="number of box-counting scales")
    p_check.add_argument("--adjacent-only", action="store_true",
                         help="weaker triangle-condition reading over consecutive triples")
    return parser


def _flag_values(args, names, what: str) -> list[float]:
    """The values of the flags ``names``, in order; a missing one raises DomainError."""
    for name in names:
        if getattr(args, name) is None:
            raise DomainError(f"--{name} is required for {what}")
    return [getattr(args, name) for name in names]


def _cmd_eval(args) -> int:
    """eval and invert: one registry function at the point its flags give."""
    names, fn = (_EVAL_FNS if args.command == "eval" else _INVERT_FNS)[args.fn]
    print(_fmt(fn(*_flag_values(args, names, f"--fn {args.fn}"))))
    return 0


def _grid_points(start: float, stop: float, step: float) -> list[float]:
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"grid bounds must be finite, got {start} and {stop}")
    if not (step > 0):
        raise DomainError(f"step must be positive, got {step}")
    if not (start < stop):
        raise DomainError(f"need from < to, got {start} >= {stop}")
    span = (stop - start) / step  # inf once the span overflows
    if not span < _MAX_GRID_POINTS - 0.5:  # round(span) + 1 points
        raise DomainError(f"a grid has at most {_MAX_GRID_POINTS} points; "
                          f"{start} to {stop} in steps of {step} has more")
    n = int(round(span))
    pts = [start + i * step for i in range(n + 1)]
    return [p for p in pts if p <= stop + 1e-12 * max(1.0, abs(stop))]


def _cmd_table(args) -> int:
    names, fn = _EVAL_FNS[args.fn]
    *fixed, sweep = names
    params = _flag_values(args, fixed, f"--fn {args.fn}")
    grid = _grid_points(args.start, args.stop, args.step)
    rows = []  # (formatted value, None) or (None, error message) per grid point
    for v in grid:
        try:
            rows.append((_fmt(fn(*params, v)), None))
        except QcfunError as exc:
            rows.append((None, str(exc)))
    if args.format == "csv":
        print(f"{sweep},value,error")
        for v, (value, error) in zip(grid, rows):
            print(f"{_fmt(v)},{value or ''},{error or ''}")
    else:
        import json

        payload = {
            "function": args.fn,
            "params": dict(zip(fixed, params)),
            "grid": [_fmt(v) for v in grid],
            "values": [value for value, _ in rows],
            "errors": [error for _, error in rows],
        }
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_residuals(args) -> int:
    import json

    from . import identities

    if args.list:
        for case in identities.all_cases():
            print(f"{case.id}\t{case.kind.value}\ttol={case.tolerance:g}")
        return 0
    overrides = None
    if args.grid:
        try:
            start, stop, step = (float(v) for v in args.grid.split(":"))
        except ValueError:
            raise DomainError(f"--grid must look like from:to:step, got {args.grid!r}") from None
        pts = _grid_points(start, stop, step)
        overrides = {"r": pts, "s": pts}
    case_ids = None if args.suite == "all" else args.case
    reports = identities.run_suite(case_ids, overrides)
    print(json.dumps([rep.to_dict() for rep in reports], indent=2))
    return 0 if all(rep.passed for rep in reports) else FAIL_EXIT


def _cmd_experiment(args) -> int:
    import json

    from . import identities

    params = {name: getattr(args, name) for name in _experiment_flags() if getattr(args, name) is not None}
    obs = identities.experiment(args.name, **params)
    print(json.dumps(obs, indent=2, default=float))
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import BoundId, bound_signature, bound_value

    if args.list:
        for b in BoundId:
            print(f"{b.value}\tparams: {', '.join(bound_signature(b))}")
        return 0
    bound = BoundId(args.id)
    if bound is BoundId.EtaKnUpper and args.n is None:
        args.n = 2.0  # the plane case
    print(_fmt(bound_value(bound, _flag_values(args, bound_signature(bound), f"bound {bound.value}"))))
    return 0


def _cmd_geom(args) -> int:
    import json

    from . import geometry  # the only command that needs numpy

    if args.action == "generate":
        if args.koch:
            poly = geometry.koch_curve(args.level, args.angle)
        else:
            poly = geometry.regular_ngon(args.ngon, args.radius)
        try:
            poly.to_csv(args.out)
        except OSError as exc:  # a file geom cannot write is a usage error
            raise DomainError(str(exc)) from None
        print(f"wrote {poly.n_vertices} vertices ({poly.n_edges} edges) to {args.out}")
        return 0
    try:
        # read once, open; each property's variant re-runs the checks of its own closure
        read = geometry.Polyline.from_csv(args.infile, closed=False)
    except OSError as exc:  # as is one it cannot read
        raise DomainError(str(exc)) from None
    results = {}
    for prop in args.properties:
        poly = read._replace(closed=not args.open and prop != "triangle")
        if prop == "ahlfors":
            results["ahlfors"] = geometry.ahlfors_constant(poly)
        elif prop == "triangle":
            results["triangle"] = geometry.triangle_condition_constant(
                poly, adjacent_only=args.adjacent_only)
        else:
            # geometric ladder from d/8 down to the curve's own resolution
            # (below the finest edge every curve reads as one-dimensional)
            d = poly.diameter()
            n_scales = max(2, args.scales)
            top = d / 8.0
            floor = max(float(poly.edge_lengths().min()), top * 0.5 ** (n_scales - 1))
            floor = min(floor, top / 10.0)  # keep at least a decade of span
            ratio = (floor / top) ** (1.0 / (n_scales - 1))
            scales = [top * ratio ** k for k in range(n_scales)]
            results["boxdim"] = geometry.box_dimension(poly, scales)
    print(json.dumps(results, indent=2))
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "invert": _cmd_eval,
    "table": _cmd_table,
    "residuals": _cmd_residuals,
    "experiment": _cmd_experiment,
    "bounds": _cmd_bounds,
    "geom": _cmd_geom,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top level takes no option but -h, so the first word is the command; with
    # none, argparse stops at the top level, which shows no command's options
    parser = _build_parser(next((word for word in argv if not word.startswith("-")), ""))
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, inside the handler, not at exit
        return code
    except BrokenPipeError:  # the Python docs' SIGPIPE recipe: the last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAIL_EXIT
    except (PolylineFormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except QcfunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
