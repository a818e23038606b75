"""Seeded inputs for the four workloads.

A workload is one *round*: a fixed list of operations built from ``--seed``.
A run repeats the round until its time is up, so every run attempts whole
rounds and the share of any kind of operation (and of the known-fault
operations) is the same in every run.

The op mix of each round is chosen so that the median and the 90th
percentile of the per-operation latency fall well inside one band of
operation kinds, never on the edge between two bands (see README.md).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("classical", "signature", "cli", "geometry")

A_GRID = (1.0 / 6.0, 0.25, 1.0 / 3.0, 0.5)

# ellint_K(r) with 1 - r in [1e-11, 1e-8) returns the midpoint of the
# log(4/r') bracket (relative error ~0.09 (1 - r), against the ~1e-15 the
# docstring promises).  These inputs do not depend on the seed, so the share
# of failed operations is the same in every run until the band is fixed.
ELLINT_K_BAND = tuple(1.0 - d for d in (1e-11, 5e-11, 2e-10, 1e-9, 4e-9, 9e-9))

# residual cases cheap enough to count as a light command (< 20 ms each)
LIGHT_CASES = ("BBG11", "BBG2", "BBG5", "Fixed1", "Fixed3", "Fixed5", "KBracketLower",
               "KOverLog", "LJ3", "LambdaBracketUpper", "Landen", "LandenIneq", "MeanChain",
               "MuDup", "MuPlusLog", "MuProd", "PhiGroup1", "PhiGroup4", "PhiId1", "PhiId4",
               "QiuBracket", "RamIdCase", "RamanujanE3", "RamanujanE5b")


@dataclass
class Op:
    """One operation: ``fn(*args)`` for in-process workloads, ``argv`` for cli."""

    kind: str
    fn: str = ""
    args: tuple = ()
    argv: tuple = ()
    known_fault: bool = False
    repeat: int = 1  # executions per round; the input's best time counts
    ref: dict = field(default_factory=dict)  # facts the check needs besides args


def spread(rng, n, lo, hi):
    """n values over [lo, hi], one uniform draw in each of n equal strata, shuffled.

    Stratified draws make the cost of a round nearly the same for every seed,
    so a change of seed moves the timings far less than a change of code.
    """
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def log_spread(rng, n, lo_exp, hi_exp):
    return [10.0 ** e for e in spread(rng, n, lo_exp, hi_exp)]


def balanced(rng, n, choices):
    vals = [choices[k % len(choices)] for k in range(n)]
    rng.shuffle(vals)
    return vals


def classical(rng, qc, workdir):
    """Signature 1/2: the AGM path.  1000 operations per round.

    60 % are AGM-fast (agm, ellint_K, mu: a few microseconds) and 40 % are
    inverses (mu_inv, phi_K, eta_K2, lambda_of_K, two bound_value entries
    that invert mu: tens of microseconds), so the median sits inside the mu
    band and the 90th percentile inside the inverse band.
    """
    B = qc.BoundId
    ops = [Op("agm", "agm", (x, y)) for x, y in zip(log_spread(rng, 200, -3, 3), log_spread(rng, 200, -3, 3))]
    near_one = [1.0 - d for d in log_spread(rng, 97, -7.9, -2)]
    ops += [Op("ellint_K", "ellint_K", (r,)) for r in spread(rng, 97, 0.0, 0.99) + near_one]
    ops += [Op("ellint_K.band", "ellint_K", (r,), known_fault=True) for r in ELLINT_K_BAND]
    mu_r = spread(rng, 99, 1e-4, 0.99) + log_spread(rng, 50, -4, -1) + [1.0 - d for d in log_spread(rng, 50, -8, -1)]
    ops += [Op("mu", "mu", (r,)) for r in mu_r]
    ops.append(Op("mu.sqrt_half", "mu", (qc.SQRT_HALF,)))
    half_pi = 0.5 * math.pi
    ops += [Op("mu_inv.upper", "mu_inv", (y,)) for y in spread(rng, 80, half_pi, 12.0)]
    ops += [Op("mu_inv.lower", "mu_inv", (y,)) for y in spread(rng, 80, 0.25, half_pi)]
    Ks = spread(rng, 15, 0.3, 0.95) + spread(rng, 45, 1.05, 4.0)
    ops += [Op("phi_K", "phi_K", (K, r)) for K, r in zip(Ks, spread(rng, 60, 0.02, 0.98))]
    ops += [Op("phi_K.closed", "phi_K", (2.0, r)) for r in spread(rng, 20, 0.02, 0.98)]
    ops += [Op("eta_K2", "eta_K2", (K, t)) for K, t in zip(spread(rng, 40, 1.05, 3.5), log_spread(rng, 40, -2, 2))]
    ops += [Op("eta_K2.t1", "eta_K2", (K, 1.0)) for K in spread(rng, 10, 1.05, 3.5)]
    ops += [Op("lambda_of_K", "lambda_of_K", (K,)) for K in spread(rng, 30, 1.05, 4.0)]
    ops += [Op("bound.VuorinenC2", "bound_value", (B.VuorinenC2, [K])) for K in spread(rng, 40, 1.05, 4.0)]
    ts = spread(rng, 20, 0.05, 0.8) + spread(rng, 20, 1.25, 20.0)
    ops += [Op("bound.EtaKnUpper", "bound_value", (B.EtaKnUpper, [K, t, 2.0]))
            for K, t in zip(spread(rng, 40, 1.2, 3.0), ts)]
    return ops


def signature(rng, qc, workdir):
    """Signatures 1/6, 1/4, 1/3, 1/2: the hypergeometric path.  400 operations per round.

    40 % are gauss_F (balanced on both sides of the 0.95 seam, and
    non-balanced at z <= 0.9), 30 % mu_a and its derivative, 30 % inverses
    (mu_a_inv on both sides of y = pi/(2 sin pi a), phi_aK): the 90th
    percentile lies inside the inverse band.
    """
    H = qc.HypergeomParams
    ops = []
    zs = spread(rng, 60, 0.3, 0.95) + [1.0 - d for d in log_spread(rng, 40, -6, math.log10(0.05))]
    for k, (a, z) in enumerate(zip(balanced(rng, 100, A_GRID), zs)):
        ops.append(Op("gauss_F.balanced" if k < 60 else "gauss_F.near_one", "gauss_F", (H(a, 1.0 - a, 1.0), z)))
    for a, b, d, sign, z in zip(spread(rng, 60, 0.1, 1.5), spread(rng, 60, 0.1, 1.5), spread(rng, 60, 0.1, 0.9),
                                balanced(rng, 60, (-1.0, 1.0)), spread(rng, 60, 0.05, 0.9)):
        c = a + b + sign * d if a + b + sign * d > 0.2 else a + b + d
        ops.append(Op("gauss_F.general", "gauss_F", (H(a, b, c), z)))
    ops += [Op("mu_a", "mu_a", (a, r)) for a, r in zip(balanced(rng, 80, A_GRID), spread(rng, 80, 0.02, 0.99))]
    ops += [Op("mu_a_derivative", "mu_a_derivative", (a, r))
            for a, r in zip(balanced(rng, 40, A_GRID), spread(rng, 40, 0.02, 0.99))]
    for kind, lo, hi in (("mu_a_inv.upper", 1.0, 3.0), ("mu_a_inv.lower", 0.35, 1.0)):
        for a, f in zip(balanced(rng, 40, A_GRID), spread(rng, 40, lo, hi)):
            ops.append(Op(kind, "mu_a_inv", (a, 0.5 * math.pi / math.sin(math.pi * a) * f)))
    ops += [Op("phi_aK", "phi_aK", (a, K, r)) for a, K, r in
            zip(balanced(rng, 40, A_GRID), spread(rng, 40, 1.1, 4.0), spread(rng, 40, 0.05, 0.95))]
    return ops


def _open_graph(rng, np, qc, n=45):
    """Open polyline: the graph of a rough function over [0, 1]."""
    ys = np.array([rng.uniform(-0.1, 0.1) for _ in range(n)])
    return qc.Polyline(np.column_stack((np.linspace(0.0, 1.0, n), ys)), closed=False)


def _inside_pair(rng):
    pts = []
    for _ in range(2):
        rad, ang = 0.6 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
        pts.append((rad * math.cos(ang), rad * math.sin(ang)))
    return pts


def geometry(rng, qc, workdir):
    """Curve generation and the geometric estimators.  100 inputs per round.

    78 light inputs, 10 executions each per round: 37 cheap ones, then 24
    ``boundary_metric_estimate`` AbsoluteRatio inputs of equal cost that hold
    the median, then 17 dearer ones.  18 ``ahlfors_constant`` inputs on Koch
    level 3 curves and n-gons of 100 to 160 vertices (5 executions each) hold
    the 90th percentile.  Three ``ahlfors_constant`` inputs at n = 768 and
    ``box_dimension`` at Koch level 6 run once per round; they carry most of
    the time and the memory.  Sizes are fixed and the seed moves shapes and
    positions, so every input keeps its rank whatever the seed.
    """
    import numpy as np

    light, small = 10, 5

    def local_sets(kind, fn, n):
        ops = []
        for angle, r in zip(spread(rng, n, 45.0, 70.0), spread(rng, n, 0.08, 0.25)):
            E = qc.koch_curve(3, angle).points
            ops.append(Op(kind, fn, (E, E[rng.randrange(len(E))], r), repeat=light))
        return ops

    def boundary(mode, n):
        return [Op(f"boundary_metric.{mode}", "boundary_metric_estimate",
                   (qc.regular_ngon(64), *_inside_pair(rng), mode), repeat=light) for _ in range(n)]

    def koch_ahlfors(kind, levels, reps):
        return [Op(kind, "ahlfors_constant", (qc.koch_curve(level, angle),), repeat=reps)
                for level, angle in zip(levels, spread(rng, len(levels), 40.0, 75.0))]

    ops = [Op("regular_ngon", "regular_ngon", (n, radius), repeat=light)
           for n, radius in zip((100, 200, 400, 800, 1000, 1200, 1600, 2000), spread(rng, 8, 0.5, 2.0))]
    ops += boundary("Apollonian", 8)
    ops += [Op("triangle.adjacent", "triangle_condition_constant", (_open_graph(rng, np, qc), True), repeat=light)
            for _ in range(6)]
    ops += local_sets("thickness", "thickness_constant", 6)
    ops += [Op("koch_curve", "koch_curve", (level, angle), repeat=light)
            for level, angle in zip((3, 3, 3, 4, 4, 4), spread(rng, 6, 40.0, 75.0))]
    ops += koch_ahlfors("ahlfors.koch_small", (1, 1, 1), light)
    ops += boundary("AbsoluteRatio", 24)
    ops += local_sets("linear_approx_delta", "linear_approx_delta", 8)
    ops += [Op("triangle", "triangle_condition_constant", (_open_graph(rng, np, qc),), repeat=light)
            for _ in range(6)]
    ops += koch_ahlfors("ahlfors.koch_small", (2, 2, 2), light)
    ops += [Op("ahlfors.ngon", "ahlfors_constant", (qc.regular_ngon(n, radius),), repeat=small)
            for n, radius in zip(range(100, 161, 12), spread(rng, 6, 0.5, 2.0))]
    ops += koch_ahlfors("ahlfors.koch3", (3,) * 12, small)
    ops += koch_ahlfors("ahlfors.koch4", (4, 4, 4), 1)
    ops.append(Op("box_dimension.koch6", "box_dimension", (qc.koch_curve(6), [3.0 ** -k for k in range(1, 6)])))
    return ops


def cli(rng, qc, workdir):
    """``qcfun`` commands, each in a fresh interpreter.  100 commands per round.

    65 light commands (import-dominated), 15 small ``geom check`` runs (they
    need numpy whatever the import order) and 20 ``residuals --suite all``
    (cold identities cache): the median lies in the light band and the 90th
    percentile is the middle of the suite band.
    """
    def f(values):
        return [repr(float(v)) for v in values]

    def a_values(n):
        return f(balanced(rng, n, A_GRID))

    ops = []
    for r in f(spread(rng, 5, 0.01, 0.99)):
        ops.append(Op("cli.eval.mu", argv=("eval", "--fn", "mu", "--r", r)))
    for a, r in zip(a_values(5), f(spread(rng, 5, 0.02, 0.98))):
        ops.append(Op("cli.eval.muA", argv=("eval", "--fn", "muA", "--a", a, "--r", r)))
    for r in f(spread(rng, 5, 0.01, 0.999)):
        ops.append(Op("cli.eval.K", argv=("eval", "--fn", "K", "--r", r)))
    for K, r in zip(f(spread(rng, 5, 1.1, 3.0)), f(spread(rng, 5, 0.05, 0.9))):
        ops.append(Op("cli.eval.phiK", argv=("eval", "--fn", "phiK", "--K", K, "--r", r)))
    for K, t in zip(f(spread(rng, 5, 1.1, 3.0)), f(log_spread(rng, 5, -1, 1))):
        ops.append(Op("cli.eval.eta", argv=("eval", "--fn", "eta", "--K", K, "--t", t)))
    for K in f(spread(rng, 5, 1.05, 4.0)):
        ops.append(Op("cli.eval.lambda", argv=("eval", "--fn", "lambda", "--K", K)))
    for y in f(spread(rng, 5, 0.8, 6.0)):
        ops.append(Op("cli.invert.mu", argv=("invert", "--fn", "mu", "--y", y)))
    for a, g in zip(balanced(rng, 5, A_GRID), spread(rng, 5, 0.8, 2.5)):
        y = 0.5 * math.pi / math.sin(math.pi * a) * g
        ops.append(Op("cli.invert.muA", argv=("invert", "--fn", "muA", "--a", repr(a), "--y", repr(y))))
    for _ in range(4):
        ops.append(Op("cli.table.phiK", argv=("table", "--fn", "phiK", "--K", "2", "--from", "0.1",
                                              "--to", "0.9", "--step", "0.1")))
    for a, K in zip(a_values(4), f(spread(rng, 4, 1.2, 3.0))):
        ops.append(Op("cli.table.phiA", argv=("table", "--fn", "phiA", "--a", a, "--K", K,
                                              "--from", "0.05", "--to", "0.85", "--step", "0.2")))
    for K in f(spread(rng, 4, 1.0, 5.0)):
        ops.append(Op("cli.bounds.MoriConstant", argv=("bounds", "--id", "MoriConstant", "--K", K)))
    for K in f(spread(rng, 4, 1.05, 4.0)):
        ops.append(Op("cli.bounds.VuorinenC2", argv=("bounds", "--id", "VuorinenC2", "--K", K)))
    for _ in range(9):
        argv = ["residuals"]
        for case in rng.sample(LIGHT_CASES, 2):
            argv += ["--case", case]
        ops.append(Op("cli.residuals.case", argv=tuple(argv)))
    curves = [("koch3", qc.koch_curve(3, angle)) for angle in spread(rng, 5, 45.0, 70.0)]
    curves += [("koch2", qc.koch_curve(2, angle)) for angle in spread(rng, 5, 45.0, 70.0)]
    curves += [("ngon", qc.regular_ngon(round(n))) for n in spread(rng, 5, 60, 200)]
    for k, (name, poly) in enumerate(curves):
        path = str(workdir / f"curve{k}.csv")
        poly.to_csv(path)
        ops.append(Op(f"cli.geom.{name}", argv=("geom", "check", "--in", path, "--property", "ahlfors"),
                      ref={"points": poly.points}))
    ops += [Op("cli.residuals.suite", argv=("residuals", "--suite", "all")) for _ in range(20)]
    return ops


BUILDERS = {"classical": classical, "signature": signature, "cli": cli, "geometry": geometry}


def build(workload: str, seed: int, qc, workdir):
    """The round of ``workload`` for ``seed``, in a seeded random order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](rng, qc, workdir)
    rng.shuffle(ops)
    return ops
