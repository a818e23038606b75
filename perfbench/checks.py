"""Independent checks of every operation's output.

Each check returns the error as a multiple of its tolerance: a value above 1
fails.  References come from outside the program: mpmath at 34 digits for
the special functions, closed forms, and direct evaluations of the geometric
definitions written here.  Tolerances are the accuracy each docstring
promises.  Inverse results are put back into the mpmath modulus, reading the
well-conditioned channel of a ``UnitRadius`` (``.r`` when r < comp, else
``.comp``): reading ``.r`` near 1 would show false errors of order 1.

This module imports mpmath, so it is imported only after the timed phase and
after peak memory has been read.
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 34

TOL_AGM = 1e-15
TOL_K = 1e-14        # ellint_K: "relative error ~1e-15"
TOL_MU = 1e-13       # mu: "relative error <= 1e-13"
TOL_INV = 1e-12      # mu_inv: |mu(r) - y| <= 1e-12 max(1, y)
TOL_HYP = 1e-12      # gauss_F: "relative error <= 1e-12"
TOL_INV_A = 1e-11    # mu_a_inv: mu_a(result) = y to 1e-11 max(1, y)
TOL_GEOM = 1e-12     # direct evaluations of the same definitions
TOL_DELTA = 1e-10    # linear_approx_delta: golden-section angle search
BOXDIM_SLACK = 0.05
KOCH_DIM = math.log(4.0) / math.log(3.0)


def rel(value, ref, tol):
    ref = mp.mpf(ref)
    return float(abs(mp.mpf(value) - ref) / (abs(ref) * tol))


def residual(y_got, y, tol, slack=0):
    return float(abs(y_got - y) / (tol * max(1, abs(y)) + slack))


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def channels_of_r(r):
    """(m, 1 - m) with m = r^2, exact for a float r."""
    m = mp.mpf(r) ** 2
    return m, 1 - m


def channels(u):
    """(m, 1 - m) of a UnitRadius, read from its well-conditioned channel."""
    if u.r < u.comp:
        return channels_of_r(u.r)
    m1 = mp.mpf(u.comp) ** 2
    return 1 - m1, m1


def mu_ref(m, m1):
    return mp.pi / 2 * mp.ellipk(m1) / mp.ellipk(m)


def mu_a_ref(a, m, m1):
    a = mp.mpf(a)
    return mp.pi / (2 * mp.sin(mp.pi * a)) * mp.hyp2f1(a, 1 - a, 1, m1) / mp.hyp2f1(a, 1 - a, 1, m)


def mu_of_printed_r(r, y, tol, a=None):
    """Residual of a radius known only as the float r (printed output).

    Near r = 1 the float itself cannot pin the modulus: the slack adds
    |d mu / dr| times two ulps of r (one for rounding the result to r, one
    for the rounding inside r = sqrt((1 - c)(1 + c))), from
    d mu/dr = -pi^2 / (4 r r'^2 K^2) and d mu_a/dr = -1 / (r r'^2 F^2).
    """
    m, m1 = channels_of_r(r)
    if a is None:
        value = mu_ref(m, m1)
        slope = mp.pi ** 2 / (4 * mp.mpf(r) * m1 * mp.ellipk(m) ** 2)
    else:
        value = mu_a_ref(a, m, m1)
        slope = 1 / (mp.mpf(r) * m1 * mp.hyp2f1(mp.mpf(a), 1 - mp.mpf(a), 1, m) ** 2)
    return residual(value, y, tol, 2 * slope * math.ulp(r))


def eta_channels(eta):
    """(u^2, 1 - u^2) of the radius u with u^2 / (1 - u^2) = eta."""
    eta = mp.mpf(eta)
    return eta / (1 + eta), 1 / (1 + eta)


def pair_dist(p, q):
    """|p - q| rounded as the library rounds it: sqrt(dx^2 + dy^2)."""
    d = p - q
    return np.sqrt((d * d).sum(axis=-1))


def ahlfors_brute(points):
    """The three-point constant straight from its definition.

    Every vertex pair (i, j) splits the closed curve into the vertex runs
    i..j and j..i+n; each run's diameter is the largest distance between
    two of its vertices.  O(n^4); for the smallest curves only.
    """
    n = len(points)
    doubled = np.concatenate([points, points])
    dist = pair_dist(doubled[:, None, :], doubled[None, :, :])
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d1 = dist[i:j + 1, i:j + 1].max()
            d2 = dist[j:i + n + 1, j:i + n + 1].max()
            best = max(best, min(d1, d2) / dist[i, j])
    return best


def ahlfors_by_columns(points):
    """The same constant in O(n^2) time by a route the library does not use.

    For each end vertex e the farthest earlier vertex of every run ending at
    e comes from a suffix maximum of e's distance column; a run's diameter
    is the larger of that and the diameter of the run one shorter.
    """
    n = len(points)
    doubled = np.concatenate([points, points])
    arc = np.zeros((n, n))  # arc[s, L]: diameter of the run s..s+L
    for e in range(1, 2 * n - 1):
        s_lo, s_hi = max(0, e - n + 1), min(e - 1, n - 1)
        if s_lo > s_hi:
            continue
        col = pair_dist(doubled[s_lo:e], doubled[e])
        suffix = np.maximum.accumulate(col[::-1])[::-1][: s_hi - s_lo + 1]
        s = np.arange(s_lo, s_hi + 1)
        arc[s, e - s] = np.maximum(arc[s, e - s - 1], suffix)
    best = 0.0
    for i in range(n - 1):
        j = np.arange(i + 1, n)
        chord = pair_dist(points[i], points[j])
        both = np.minimum(arc[i, j - i], arc[j, n - (j - i)])
        best = max(best, float((both / chord).max()))
    return best


def triangle_brute(points, adjacent_only):
    n = len(points)
    dist = pair_dist(points[:, None, :], points[None, :, :])
    if adjacent_only:
        return max((dist[i, i + 1] + dist[i + 1, i + 2]) / dist[i, i + 2] for i in range(n - 2))
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    mask = (i < j) & (j < k)
    i, j, k = i[mask], j[mask], k[mask]
    return max(1.0, float(((dist[i, j] + dist[j, k]) / dist[i, k]).max()))


def boundary_metric_brute(poly, a, b, mode):
    """Sup over every boundary pair (c, d) of the absolute ratio, pair by pair."""
    z = poly[:, 0] + 1j * poly[:, 1]
    za, zb = complex(*a), complex(*b)
    c, d = z[:, None], z[None, :]
    if mode == "AbsoluteRatio":
        ratio = abs(za - zb) * abs(c - d) / (abs(c - za) * abs(d - zb))
        return math.log1p(float(ratio.max()))
    ratio = abs(c - za) * abs(zb - d) / (abs(c - zb) * abs(za - d))
    return math.log(float(ratio.max()))


def local_points(E, x, r):
    d = E - x
    return d[np.hypot(d[:, 0], d[:, 1]) <= r]


def thickness_brute(E, x, r):
    """Largest triangle over every triple of local points, divided by r^2."""
    loc = local_points(E, x, r) + x
    m = len(loc)
    best = 0.0
    for i in range(m - 2):
        u = loc[i + 1:] - loc[i]
        cross = np.abs(u[:, None, 0] * u[None, :, 1] - u[:, None, 1] * u[None, :, 0])
        best = max(best, float(cross.max()))
    return 0.5 * best / (r * r)


def slab_exact(E, x, r):
    """Exact least slab half-width through x, over r.

    The width max_i |p_i . n(phi)| is an upper envelope of |sin| arcs, so
    its minimum sits where two arcs cross (phi along p_i - p_j or p_i + p_j)
    or where one arc vanishes (phi along p_i): all of them are tried.
    """
    loc = local_points(E, x, r)
    loc = loc[np.hypot(loc[:, 0], loc[:, 1]) > 0]
    cand = np.concatenate([(loc[:, None, :] - loc[None, :, :]).reshape(-1, 2),
                           (loc[:, None, :] + loc[None, :, :]).reshape(-1, 2), loc])
    cand = cand[np.hypot(cand[:, 0], cand[:, 1]) > 0]
    phi = np.arctan2(cand[:, 1], cand[:, 0])
    normals = np.column_stack((-np.sin(phi), np.cos(phi)))
    widths = np.abs(loc @ normals.T).max(axis=0)
    return float(widths.min()) / r


# ---------------------------------------------------------------------------
# per-kind checks: (op, output, qc) -> error / tolerance
# ---------------------------------------------------------------------------

def _eta_residual(K, t, eta):
    t = mp.mpf(t)
    y = mu_ref(t / (1 + t), 1 / (1 + t)) / K
    return residual(mu_ref(*eta_channels(eta)), y, TOL_INV)


def _bound_check(bound_id, params, out, qc):
    if bound_id is qc.BoundId.VuorinenC2:
        (K,) = params
        t = mp.mpf(out) - 1  # c(2, K) = 1 + t with tau_2(t) = 2/K, i.e. mu(1/sqrt(1+t)) = pi K / 2
        return residual(mu_ref(1 / (1 + t), t / (1 + t)), mp.pi * K / 2, TOL_INV)
    K, t, _ = params
    eta1 = math.exp(6.0 * (K + 1.0) ** 2 * math.sqrt(K - 1.0))  # the same float normaliser
    if t < 1.0:
        return mu_of_printed_r(float(mp.mpf(out) / eta1), mu_ref(*channels_of_r(t)) / K, TOL_INV)
    return residual(mu_ref(*channels_of_r(eta1 / mp.mpf(out))), K * mu_ref(*channels_of_r(1.0 / t)), TOL_INV)


def _lambda_check(K, out):
    lo, hi = math.exp(math.pi * (K - 1.0)), math.exp(math.pi * (K - 1.0 / K))
    inside = lo * (1 - 1e-12) <= out <= hi * (1 + 1e-12)
    return max(_eta_residual(K, 1.0, out), 0.0 if inside else math.inf)


def _eta_t1(op, out, qc):
    K, _ = op.args
    return max(_eta_residual(K, 1.0, out), rel(out, qc.lambda_of_K(K), TOL_INV))


def _phi_k_closed(op, out, qc):
    K, r = op.args
    y = mu_ref(*channels_of_r(r)) / K
    closed = 2 * mp.sqrt(r) / (1 + mp.mpf(r))
    return max(residual(mu_ref(*channels(out)), y, TOL_INV), rel(out.r, closed, TOL_MU))


def _phi_k(op, out, qc):
    K, r = op.args
    return residual(mu_ref(*channels(out)), mu_ref(*channels_of_r(r)) / K, TOL_INV)


def _mu_a_deriv(op, out, qc):
    a, r = op.args
    m, _ = channels_of_r(r)
    F = mp.hyp2f1(mp.mpf(a), 1 - mp.mpf(a), 1, m)
    return rel(out, -1 / (mp.mpf(r) * (1 - m) * F * F), TOL_HYP)


def _phi_ak(op, out, qc):
    a, K, r = op.args
    y = mu_a_ref(a, *channels_of_r(r)) / K
    return residual(mu_a_ref(a, *channels(out)), y, TOL_INV_A)


def _gauss_f(op, out, qc):
    p, z = op.args
    return rel(out, mp.hyp2f1(mp.mpf(p.a), mp.mpf(p.b), mp.mpf(p.c), mp.mpf(z)), TOL_HYP)


def _koch(op, out, qc):
    level, angle = op.args
    stretch = 2.0 / 3.0 + 1.0 / (3.0 * math.cos(math.radians(angle)))
    if len(out.points) != 3 * 4 ** level or not out.closed:
        return math.inf
    return rel(float(out.edge_lengths().sum()), 3.0 * stretch ** level, TOL_GEOM)


def _ngon(op, out, qc):
    n, radius = op.args
    if len(out.points) != n or not out.closed:
        return math.inf
    off_circle = float(np.abs(np.hypot(out.points[:, 0], out.points[:, 1]) - radius).max()) / (radius * TOL_GEOM)
    perimeter = 2.0 * n * radius * math.sin(math.pi / n)
    return max(off_circle, rel(float(out.edge_lengths().sum()), perimeter, TOL_GEOM))


def _boxdim(op, out, qc):
    return abs(out - KOCH_DIM) / BOXDIM_SLACK


def _delta(op, out, qc):
    E, x, r = op.args
    exact = slab_exact(E, x, r)
    return abs(out.delta - exact) / (TOL_DELTA * max(exact, 1e-3))


CHECKS = {
    "agm": lambda op, out, qc: rel(out, mp.agm(*op.args), TOL_AGM),
    "ellint_K": lambda op, out, qc: rel(out, mp.ellipk(channels_of_r(op.args[0])[0]), TOL_K),
    "ellint_K.band": lambda op, out, qc: rel(out, mp.ellipk(channels_of_r(op.args[0])[0]), TOL_K),
    "mu": lambda op, out, qc: rel(out, mu_ref(*channels_of_r(op.args[0])), TOL_MU),
    "mu.sqrt_half": lambda op, out, qc: rel(out, mp.pi / 2, TOL_MU),
    "mu_inv.upper": lambda op, out, qc: residual(mu_ref(*channels(out)), op.args[0], TOL_INV),
    "mu_inv.lower": lambda op, out, qc: residual(mu_ref(*channels(out)), op.args[0], TOL_INV),
    "phi_K": _phi_k,
    "phi_K.closed": _phi_k_closed,
    "eta_K2": lambda op, out, qc: _eta_residual(op.args[0], op.args[1], out),
    "eta_K2.t1": _eta_t1,
    "lambda_of_K": lambda op, out, qc: _lambda_check(op.args[0], out),
    "bound.VuorinenC2": lambda op, out, qc: _bound_check(*op.args, out, qc),
    "bound.EtaKnUpper": lambda op, out, qc: _bound_check(*op.args, out, qc),
    "gauss_F.balanced": _gauss_f,
    "gauss_F.near_one": _gauss_f,
    "gauss_F.general": _gauss_f,
    "mu_a": lambda op, out, qc: rel(out, mu_a_ref(op.args[0], *channels_of_r(op.args[1])), TOL_HYP),
    "mu_a_derivative": _mu_a_deriv,
    "mu_a_inv.upper": lambda op, out, qc: residual(mu_a_ref(op.args[0], *channels(out)), op.args[1], TOL_INV_A),
    "mu_a_inv.lower": lambda op, out, qc: residual(mu_a_ref(op.args[0], *channels(out)), op.args[1], TOL_INV_A),
    "phi_aK": _phi_ak,
    "koch_curve": _koch,
    "regular_ngon": _ngon,
    "triangle": lambda op, out, qc: rel(out, triangle_brute(op.args[0].points, False), TOL_GEOM),
    "triangle.adjacent": lambda op, out, qc: rel(out, triangle_brute(op.args[0].points, True), TOL_GEOM),
    "boundary_metric.AbsoluteRatio": lambda op, out, qc: rel(
        out, boundary_metric_brute(op.args[0].points, op.args[1], op.args[2], op.args[3]), TOL_GEOM),
    "boundary_metric.Apollonian": lambda op, out, qc: rel(
        out, boundary_metric_brute(op.args[0].points, op.args[1], op.args[2], op.args[3]), TOL_GEOM),
    "thickness": lambda op, out, qc: rel(out, thickness_brute(*op.args), TOL_GEOM),
    "linear_approx_delta": _delta,
    "ahlfors.koch_small": lambda op, out, qc: rel(out, ahlfors_brute(op.args[0].points), TOL_GEOM),
    "ahlfors.ngon": lambda op, out, qc: abs(out - 1.0) / TOL_GEOM,
    "ahlfors.koch3": lambda op, out, qc: rel(out, ahlfors_by_columns(op.args[0].points), TOL_GEOM),
    "ahlfors.koch4": lambda op, out, qc: rel(out, ahlfors_by_columns(op.args[0].points), TOL_GEOM),
    "box_dimension.koch6": _boxdim,
}


# ---------------------------------------------------------------------------
# cli: (op, (exit code, stdout), qc) -> error / tolerance
# ---------------------------------------------------------------------------

def _flags(argv):
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}


def _table_rows(stdout):
    lines = stdout.strip().splitlines()
    if lines[0] != "r,value,error":
        return None
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != 3 or row[2] for row in rows):
        return None
    return [(float(row[0]), float(row[1])) for row in rows]


def _cli_number(op, text, qc):
    fl = {k: float(v) for k, v in _flags(op.argv).items() if k not in ("fn", "id")}
    kind = op.kind[4:]
    value = float(text)
    if kind == "eval.mu":
        return rel(value, mu_ref(*channels_of_r(fl["r"])), TOL_MU)
    if kind == "eval.muA":
        return rel(value, mu_a_ref(fl["a"], *channels_of_r(fl["r"])), TOL_HYP)
    if kind == "eval.K":
        return rel(value, mp.ellipk(channels_of_r(fl["r"])[0]), TOL_K)
    if kind == "eval.phiK":
        return mu_of_printed_r(value, mu_ref(*channels_of_r(fl["r"])) / fl["K"], TOL_INV)
    if kind == "eval.eta":
        return _eta_residual(fl["K"], fl["t"], value)
    if kind == "eval.lambda":
        return _lambda_check(fl["K"], value)
    if kind == "invert.mu":
        return mu_of_printed_r(value, fl["y"], TOL_INV)
    if kind == "invert.muA":
        return mu_of_printed_r(value, fl["y"], TOL_INV_A, a=fl["a"])
    if kind == "bounds.MoriConstant":
        return rel(value, mp.mpf(64) ** (1 - 1 / mp.mpf(fl["K"])), TOL_MU)
    if kind == "bounds.VuorinenC2":
        return _bound_check(qc.BoundId.VuorinenC2, [fl["K"]], value, qc)
    raise KeyError(op.kind)


def check_cli(op, out, qc):
    code, stdout = out
    kind = op.kind[4:]
    if kind == "residuals.suite" or kind == "residuals.case":
        reports = json.loads(stdout)
        expected = len(qc.identities.all_cases()) if kind == "residuals.suite" else len(op.argv) // 2
        ok = (code == 0 and len(reports) == expected
              and all(rep["pass"] and rep["max_residual"] <= rep["tolerance"] for rep in reports))
        return 0.0 if ok else math.inf
    if code != 0:
        return math.inf
    if kind.startswith("geom."):
        value = json.loads(stdout)["ahlfors"]
        if kind == "geom.ngon":
            return abs(value - 1.0) / TOL_GEOM
        return rel(value, ahlfors_brute(op.ref["points"]), TOL_GEOM)
    if kind.startswith("table."):
        rows = _table_rows(stdout)
        if rows is None:
            return math.inf
        fl = {k: float(v) for k, v in _flags(op.argv).items() if k != "fn"}
        worst = 0.0
        for r, value in rows:
            if kind == "table.phiK":
                worst = max(worst, rel(value, 2 * mp.sqrt(r) / (1 + mp.mpf(r)), TOL_MU),
                            mu_of_printed_r(value, mu_ref(*channels_of_r(r)) / fl["K"], TOL_INV))
            else:
                y = mu_a_ref(fl["a"], *channels_of_r(r)) / fl["K"]
                worst = max(worst, mu_of_printed_r(value, y, TOL_INV_A, a=fl["a"]))
        expected_rows = round((fl["to"] - fl["from"]) / fl["step"]) + 1
        return worst if len(rows) == expected_rows else math.inf
    return _cli_number(op, stdout.strip(), qc)


def check(op, out, qc):
    """Error over tolerance for one operation's output (> 1 fails)."""
    if isinstance(out, BaseException):
        return math.inf
    if op.argv:
        return check_cli(op, out, qc)
    return CHECKS[op.kind](op, out, qc)
