"""Command-line front end.

Subcommands: eval, invert, table, residuals, experiment, bounds, geom.
Output is deterministic (no environment dependence, fixed 17-significant-digit
numbers in tables).  Exit codes: 0 success / suite all-pass, 1 computational
failure or suite failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import distortion, identities, modulus
from .bounds import BoundId, bound_signature, bound_value
from .errors import DomainError, PolylineFormatError, QcfunError
from .means import ellint_K, ellint_Kprime
from .modulus import UnitRadius

USAGE_EXIT = 2
FAIL_EXIT = 1


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# function registry: name -> (required flags, callable(args) -> float); a table
# sweeps the last flag
_EVAL_FNS = {
    "mu": (("r",), lambda a: modulus.mu(UnitRadius.from_r(a.r))),
    "muA": (("a", "r"), lambda a: modulus.mu_a(a.a, UnitRadius.from_r(a.r))),
    "muADeriv": (("a", "r"), lambda a: modulus.mu_a_derivative(a.a, UnitRadius.from_r(a.r))),
    "K": (("r",), lambda a: ellint_K(a.r)),
    "Kprime": (("r",), lambda a: ellint_Kprime(a.r)),
    "phiK": (("K", "r"), lambda a: distortion.phi_K(a.K, UnitRadius.from_r(a.r)).r),
    "phiA": (("a", "K", "r"), lambda a: distortion.phi_aK(a.a, a.K, UnitRadius.from_r(a.r)).r),
    "eta": (("K", "t"), lambda a: distortion.eta_K2(a.K, a.t)),
    "lambda": (("K",), lambda a: distortion.lambda_of_K(a.K)),
    "schottky": (("t", "r"), lambda a: distortion.schottky_psi(a.r, a.t)),
    "linearg": (("K", "x"), lambda a: distortion.linearized_g(a.K, a.x)),
    "agmprod": (("r",), lambda a: modulus.agm_product_p(UnitRadius.from_r(a.r))),
    "gamma2": (("s",), lambda a: modulus.grotzsch_gamma2(a.s)),
    "tau2": (("t",), lambda a: modulus.teichmuller_tau2(a.t)),
}

_INVERT_FNS = {
    "mu": lambda a: modulus.mu_inv(a.y).r,
    "muA": lambda a: modulus.mu_a_inv(a.a, a.y).r,
    "tau2": lambda a: modulus.tau2_inv(a.y),
    "gamma2": lambda a: modulus.gamma2_inv(a.y),
}


def _add_param_flags(parser):
    parser.add_argument("--r", type=float, help="radius in (0,1)")
    parser.add_argument("--K", type=float, help="dilatation")
    parser.add_argument("--a", type=float, help="signature in (0, 1/2]; 1/2 when omitted")
    parser.add_argument("--t", type=float, help="auxiliary argument t")
    parser.add_argument("--x", type=float, help="real argument")
    parser.add_argument("--s", type=float, help="argument s > 1")


def _experiment_flags() -> dict:
    """Every experiment parameter name, typed by its default (float or int)."""
    return {p.name: type(p.default) for fn in identities._EXPERIMENTS.values()
            for p in inspect.signature(fn).parameters.values()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcfun",
        description="Special functions of plane quasiconformal map theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument("--fn", required=True, choices=sorted(_EVAL_FNS))
    _add_param_flags(p_eval)

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
    _add_param_flags(p_table)

    p_res = sub.add_parser("residuals", help="run the identity suite")
    group = p_res.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite", choices=("all",))
    group.add_argument("--case", action="append", help="case id (repeatable)")
    group.add_argument("--list", action="store_true", help="list case ids")
    p_res.add_argument("--grid", help="from:to:step override for the r/s axis")

    p_exp = sub.add_parser("experiment", help="open-problem observations (never asserted)")
    p_exp.add_argument("--name", required=True, choices=identities.EXPERIMENT_NAMES)
    for name, kind in _experiment_flags().items():
        p_exp.add_argument(f"--{name}", type=kind)

    p_bounds = sub.add_parser("bounds", help="evaluate a catalog bound")
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


def _require(args, names, fn_name):
    for name in names:
        if getattr(args, name) is None:
            raise DomainError(f"--{name} is required for --fn {fn_name}")


def _cmd_eval(args) -> int:
    names, fn = _EVAL_FNS[args.fn]
    _require(args, names, args.fn)
    print(_fmt(fn(args)))
    return 0


def _cmd_invert(args) -> int:
    print(_fmt(_INVERT_FNS[args.fn](args)))
    return 0


def _grid_points(start: float, stop: float, step: float) -> list[float]:
    if not (step > 0):
        raise DomainError(f"step must be positive, got {step}")
    if not (start < stop):
        raise DomainError(f"need from < to, got {start} >= {stop}")
    n = int(round((stop - start) / step))
    pts = [start + i * step for i in range(n + 1)]
    return [p for p in pts if p <= stop + 1e-12 * max(1.0, abs(stop))]


def _cmd_table(args) -> int:
    names, fn = _EVAL_FNS[args.fn]
    *fixed, sweep = names
    _require(args, fixed, args.fn)
    grid = _grid_points(args.start, args.stop, args.step)
    rows = []  # (formatted value, None) or (None, error message) per grid point
    for v in grid:
        setattr(args, sweep, v)
        try:
            rows.append((_fmt(fn(args)), None))
        except QcfunError as exc:
            rows.append((None, str(exc)))
    if args.format == "csv":
        print(f"{sweep},value,error")
        for v, (value, error) in zip(grid, rows):
            print(f"{_fmt(v)},{value or ''},{error or ''}")
    else:
        payload = {
            "function": args.fn,
            "params": {n: getattr(args, n) for n in fixed},
            "grid": [_fmt(v) for v in grid],
            "values": [value for value, _ in rows],
            "errors": [error for _, error in rows],
        }
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_residuals(args) -> int:
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
    params = {name: getattr(args, name) for name in _experiment_flags() if getattr(args, name) is not None}
    obs = identities.experiment(args.name, **params)
    print(json.dumps(obs, indent=2, default=float))
    return 0


def _cmd_bounds(args) -> int:
    if args.list:
        for b in BoundId:
            print(f"{b.value}\tparams: {', '.join(bound_signature(b))}")
        return 0
    bound = BoundId(args.id)
    names = bound_signature(bound)
    params = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            if name == "n" and bound is BoundId.EtaKnUpper:
                v = 2.0
            else:
                raise DomainError(f"--{name} is required for bound {bound.value}")
        params.append(v)
    print(_fmt(bound_value(bound, params)))
    return 0


def _cmd_geom(args) -> int:
    from . import geometry  # the only command that needs numpy

    if args.action == "generate":
        if args.koch:
            poly = geometry.koch_curve(args.level, args.angle)
        else:
            poly = geometry.regular_ngon(args.ngon, args.radius)
        poly.to_csv(args.out)
        print(f"wrote {poly.n_vertices} vertices ({poly.n_edges} edges) to {args.out}")
        return 0
    results = {}
    for prop in args.properties:
        closed = not args.open and prop != "triangle"
        poly = geometry.Polyline.from_csv(args.infile, closed=closed)
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
    "invert": _cmd_invert,
    "table": _cmd_table,
    "residuals": _cmd_residuals,
    "experiment": _cmd_experiment,
    "bounds": _cmd_bounds,
    "geom": _cmd_geom,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PolylineFormatError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except QcfunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
