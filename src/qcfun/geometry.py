"""Planar quasicircle generation and geometric-constant estimators.

Suprema and infima over continua are approximated by brute force over
polyline vertices, so every sup-type estimate here is a lower bound that
refines as the sampling does.  All point data is immutable ndarray input;
results do not depend on evaluation order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, DomainError, PolylineFormatError

__all__ = [
    "INFINITY",
    "Polyline",
    "HyperplaneFit",
    "koch_curve",
    "regular_ngon",
    "relative_size",
    "ahlfors_constant",
    "triangle_condition_constant",
    "linear_approx_delta",
    "thickness_constant",
    "box_dimension",
    "chordal_dist",
    "abs_ratio",
    "rho_disk",
    "boundary_metric_estimate",
]

INFINITY = object()  # marker for the point at infinity in absolute ratios

_KOCH_MAX_LEVEL = 12
# ahlfors_constant holds an n x n float64 arc table: a 76 MB peak at
# n = 3072 (Koch level 5), so 134 MB at the cap by the n^2 scaling
_AHLFORS_MAX_VERTICES = 4096


def _as_points(data, min_points: int, name: str) -> np.ndarray:
    pts = np.asarray(data, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"{name} must be an (n, 2) array of plane points")
    if pts.shape[0] < min_points:
        raise DomainError(f"{name} needs at least {min_points} points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise DomainError(f"{name} contains non-finite coordinates")
    return pts


@dataclass(frozen=True)
class Polyline:
    """Ordered plane points; closed polylines treat last -> first as an edge."""

    points: np.ndarray
    closed: bool = True

    def __post_init__(self):
        pts = _as_points(self.points, 2, "polyline").copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        nxt = np.roll(pts, -1, axis=0) if self.closed else pts[1:]
        cur = pts if self.closed else pts[:-1]
        if np.any(np.all(cur == nxt, axis=1)):
            raise DomainError("polyline has coincident consecutive vertices")

    @property
    def n_vertices(self) -> int:
        return self.points.shape[0]

    @property
    def n_edges(self) -> int:
        return self.n_vertices if self.closed else self.n_vertices - 1

    def edge_lengths(self) -> np.ndarray:
        nxt = np.roll(self.points, -1, axis=0) if self.closed else self.points[1:]
        cur = self.points if self.closed else self.points[:-1]
        return np.hypot(*(nxt - cur).T)

    def perimeter(self) -> float:
        return float(self.edge_lengths().sum())

    def diameter(self) -> float:
        return _diameter(self.points)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            for x, y in self.points:
                writer.writerow([f"{x:.17g}", f"{y:.17g}"])

    @classmethod
    def from_csv(cls, path, closed: bool = True) -> "Polyline":
        with open(path, newline="") as fh:
            return cls._parse(fh, closed)

    @classmethod
    def from_csv_text(cls, text: str, closed: bool = True) -> "Polyline":
        return cls._parse(io.StringIO(text), closed)

    @classmethod
    def _parse(cls, fh, closed: bool) -> "Polyline":
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PolylineFormatError("empty file", 1) from None
        if [h.strip().lower() for h in header] != ["x", "y"]:
            raise PolylineFormatError("header must be 'x,y'", 1)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise PolylineFormatError(f"expected 2 fields, got {len(row)}", lineno)
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise PolylineFormatError(f"non-numeric coordinate {row!r}", lineno) from None
        if len(rows) < 2:
            raise PolylineFormatError("need at least 2 vertices", 2)
        return cls(np.array(rows), closed=closed)


@dataclass(frozen=True)
class HyperplaneFit:
    """Best line through a base point: unit direction and normalized deviation delta."""

    base: tuple[float, float]
    direction: tuple[float, float]
    delta: float


def koch_curve(level: int, angle_deg: float = 60.0) -> Polyline:
    """Snowflake-type closed curve: each edge is replaced by the 4-edge bump generator.

    Level 0 is the unit equilateral triangle (positively oriented); the bump
    of the middle third points outward with the given base angle, 60 degrees
    reproducing the classical snowflake (perimeter 3 (4/3)^level).  Smaller
    angles flatten the curve toward the triangle.
    """
    if not (isinstance(level, (int, np.integer)) and 0 <= level):
        raise DomainError(f"koch level must be a nonnegative integer, got {level}")
    if level > _KOCH_MAX_LEVEL:
        raise DomainError(f"koch level {level} exceeds the point-count guard ({_KOCH_MAX_LEVEL})")
    if not (0.0 < angle_deg < 90.0):
        raise DomainError(f"bump angle must lie in (0, 90) degrees, got {angle_deg}")
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    half_tan = 0.5 * math.tan(math.radians(angle_deg))
    for _ in range(level):
        nxt = np.roll(pts, -1, axis=0)
        d = nxt - pts
        a = pts + d / 3.0
        c = pts + 2.0 * d / 3.0
        # right-hand normal of the edge is outward for a positively oriented curve
        outward = np.column_stack((d[:, 1], -d[:, 0]))
        b = 0.5 * (a + c) + outward * (half_tan / 3.0)
        pts = np.stack((pts, a, b, c), axis=1).reshape(-1, 2)
    return Polyline(pts, closed=True)


def regular_ngon(n: int, radius: float = 1.0, center=(0.0, 0.0)) -> Polyline:
    """Regular n-gon inscribed in a circle; a circle proxy for the metric estimators."""
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise DomainError(f"regular_ngon needs n >= 3, got {n}")
    if not (radius > 0):
        raise DomainError(f"regular_ngon needs radius > 0, got {radius}")
    theta = 2.0 * math.pi * np.arange(n) / n
    pts = np.column_stack((center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)))
    return Polyline(pts, closed=True)


def _dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances |p - q| over broadcast (..., 2) point arrays."""
    d = p - q
    return np.sqrt((d * d).sum(axis=-1))


def _diameter(pts: np.ndarray) -> float:
    return float(_dist(pts[:, None], pts[None]).max())


def relative_size(E, F) -> float:
    """Relative size min(d(E), d(F)) / d(E, F) of two disjoint point sets."""
    e = _as_points(E, 1, "E")
    f = _as_points(F, 1, "F")
    gap = float(_dist(e[:, None], f[None]).min())
    if gap == 0.0:
        raise DegenerateGeometryError("relative_size requires disjoint sets (d(E,F) > 0)")
    return min(_diameter(e), _diameter(f)) / gap


def ahlfors_constant(curve: Polyline) -> float:
    """Three-point constant of a closed curve: max over vertex pairs (a, b) of
    min(d(C1), d(C2)) / |a - b|, the two arcs' diameters over the chord.

    Arc diameters are taken over arc vertices including the split points.
    Near 1 for circle-like curves; grows with fractality and for rooms-and-
    corridors shapes.  O(n^2) time by running-maximum sweeps over one n x n
    table of arc diameters (n^2 floats, no pairwise tensors); more than 4096
    vertices raise :class:`DomainError`.
    """
    if not curve.closed:
        raise DomainError("ahlfors_constant is defined for closed curves")
    n = curve.n_vertices
    if n < 4:
        raise DomainError("ahlfors_constant needs at least 4 vertices")
    if n > _AHLFORS_MAX_VERTICES:
        raise DomainError(
            f"ahlfors_constant accepts at most {_AHLFORS_MAX_VERTICES} vertices, got {n}"
        )
    pts2 = np.concatenate([curve.points, curve.points])
    # arc[L, s] = diameter of the vertex run s..s+L (wrapping), L = 0..n-1, by the
    # interval recurrence diam(s,L) = max(diam(s,L-1), diam(s+1,L-1), |v_s - v_{s+L}|)
    arc = np.zeros((n, n))
    cur = np.zeros(2 * n)
    for length in range(1, n):
        m = 2 * n - length
        cur = np.maximum(np.maximum(cur[:m], cur[1:m + 1]), _dist(pts2[:m], pts2[length:]))
        arc[length] = cur[:n]
    # the pair (s, s+L) splits the curve into runs of lengths L and n-L
    best = 0.0
    for length in range(1, n):
        chord = _dist(pts2[:n - length], pts2[length:n])
        if np.any(chord == 0.0):
            raise DegenerateGeometryError("curve passes through the same point twice")
        both = np.minimum(arc[length, :n - length], arc[n - length, length:])
        best = max(best, float((both / chord).max()))
    return best


def triangle_condition_constant(curve: Polyline, adjacent_only: bool = False) -> float:
    """Largest (|a-b| + |b-c|) / |a-c| over ordered vertex triples of an open polyline.

    The strongest reading takes every i < j < k; ``adjacent_only`` restricts to
    consecutive triples.  Equals 1 exactly for monotone collinear points.
    """
    if curve.closed:
        raise DomainError("triangle_condition_constant applies to open polylines (curves through infinity)")
    pts = curve.points
    n = curve.n_vertices
    if n < 3:
        raise DomainError("triangle condition needs at least 3 vertices")
    d = _dist(pts[:, None], pts[None])
    if adjacent_only:
        ac = d[np.arange(n - 2), np.arange(2, n)]
        if np.any(ac == 0.0):
            raise DegenerateGeometryError("degenerate triple with a = c")
        m = (d[np.arange(n - 2), np.arange(1, n - 1)] + d[np.arange(1, n - 1), np.arange(2, n)]) / ac
        return float(m.max())
    best = 1.0
    for j in range(1, n - 1):
        left = d[:j, j]
        right = d[j, j + 1:]
        denom = d[:j, j + 1:]
        if np.any(denom == 0.0):
            raise DegenerateGeometryError("degenerate triple with a = c")
        m = float(((left[:, None] + right[None, :]) / denom).max())
        best = max(best, m)
    return best


def linear_approx_delta(E, x, r: float, sweep: int = 720, refine_iters: int = 60) -> HyperplaneFit:
    """Smallest normalized slab width delta with E inside B(x, r) lying within
    distance delta*r of a line through x.

    Minimizes over the line angle by a coarse sweep plus golden-section
    refinement of the best bracket (the objective is piecewise-smooth in the
    angle with period pi).
    """
    pts = _as_points(E, 2, "E")
    x = np.asarray(x, dtype=float)
    if not (r > 0):
        raise DomainError(f"radius must be positive, got {r}")
    if not np.any(np.all(pts == x, axis=1)):
        raise DomainError("base point must belong to the point set")
    d = pts - x
    local = d[np.hypot(d[:, 0], d[:, 1]) <= r]
    if local.shape[0] < 2:
        raise DomainError("insufficient local points inside B(x, r)")

    def width(phi):
        normal = np.array([-math.sin(phi), math.cos(phi)])
        return float(np.abs(local @ normal).max())

    angles = np.arange(sweep) * (math.pi / sweep)
    normals = np.column_stack((-np.sin(angles), np.cos(angles)))
    widths = np.abs(local @ normals.T).max(axis=0)
    k = int(widths.argmin())
    lo = angles[k] - math.pi / sweep
    hi = angles[k] + math.pi / sweep
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    dd = lo + inv_phi * (hi - lo)
    fc, fd = width(c), width(dd)
    for _ in range(refine_iters):
        if fc < fd:
            hi, dd, fd = dd, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = width(c)
        else:
            lo, c, fc = c, dd, fd
            dd = lo + inv_phi * (hi - lo)
            fd = width(dd)
    phi = 0.5 * (lo + hi)
    return HyperplaneFit(base=(float(x[0]), float(x[1])),
                         direction=(math.cos(phi), math.sin(phi)),
                         delta=width(phi) / r)


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices in counterclockwise order."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    sorted_pts = pts[order]
    uniq = [sorted_pts[0]]
    for p in sorted_pts[1:]:
        if p[0] != uniq[-1][0] or p[1] != uniq[-1][1]:
            uniq.append(p)
    if len(uniq) <= 2:
        return np.array(uniq)

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ux, uy = out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]
                vx, vy = p[0] - out[-2][0], p[1] - out[-2][1]
                if ux * vy - uy * vx > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = build(uniq)
    upper = build(uniq[::-1])
    return np.array(lower[:-1] + upper[:-1])


def thickness_constant(E, x, r: float) -> float:
    """Largest triangle area with vertices in E within B(x, r), divided by r^2.

    Zero for collinear local points; 3 sqrt(3)/4 for a ball-inscribed
    equilateral triple at circumradius r.  The maximizing triangle has its
    vertices on the convex hull, so the cubic search runs on hull points.
    """
    pts = _as_points(E, 3, "E")
    x = np.asarray(x, dtype=float)
    if not (r > 0):
        raise DomainError(f"radius must be positive, got {r}")
    d = pts - x
    local = pts[np.hypot(d[:, 0], d[:, 1]) <= r]
    if local.shape[0] < 3:
        raise DomainError("insufficient local points inside B(x, r)")
    hull = _convex_hull(local)
    h = hull.shape[0]
    if h < 3:
        return 0.0
    best = 0.0
    for i in range(h - 2):
        u = hull[i + 1:] - hull[i]
        cross = np.abs(u[:, None, 0] * u[None, :, 1] - u[:, None, 1] * u[None, :, 0])
        best = max(best, float(cross.max()))
    return 0.5 * best / (r * r)


def box_dimension(curve: Polyline, scales) -> float:
    """Box-counting dimension estimate: least-squares slope of log N(s) vs log(1/s).

    Edges are densified to spacing <= s/3 at each scale s so the count sees
    the curve, not just its vertices, in one vectorised pass per scale; more
    than 20 M samples raise :class:`DomainError`.  Scales must span a decade.
    """
    scales = sorted(float(s) for s in scales)
    if len(scales) < 2:
        raise DomainError("box_dimension needs at least 2 scales")
    if scales[0] <= 0:
        raise DomainError("scales must be positive")
    if scales[-1] / scales[0] < 10.0:
        raise DomainError("scales must span at least a decade")
    pts = curve.points
    nxt = np.roll(pts, -1, axis=0) if curve.closed else pts[1:]
    cur = pts if curve.closed else pts[:-1]
    seg = nxt - cur
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    origin = pts.min(axis=0)
    counts = []
    for s in scales:
        m = np.maximum(1, np.ceil(lengths / (s / 3.0)).astype(int))
        total = int(m.sum()) + 1
        if total > 20_000_000:
            raise DomainError(f"scale {s} requires too many samples ({total})")
        # i * (1/k) for sample i of an edge cut into k, as linspace(0, 1, k, endpoint=False) rounds
        t_all = (np.arange(total - 1) - np.repeat(np.cumsum(m) - m, m)) * (1.0 / np.repeat(m, m))
        base = np.repeat(cur, m, axis=0)
        step = np.repeat(seg, m, axis=0)
        sample = np.vstack([base + step * t_all[:, None], pts])
        cells = np.floor((sample - origin) / s).astype(np.int64)
        span = cells[:, 1].max() - cells[:, 1].min() + 1
        key = cells[:, 0] * span + (cells[:, 1] - cells[:, 1].min())
        counts.append(len(np.unique(key)))
    logs = np.log(1.0 / np.array(scales))
    logn = np.log(np.array(counts, dtype=float))
    slope = np.polyfit(logs, logn, 1)[0]
    return float(slope)


def chordal_dist(a, b) -> float:
    """Chordal distance q(a,b) = |a-b| / (sqrt(1+|a|^2) sqrt(1+|b|^2)), q(a, inf) = 1/sqrt(1+|a|^2)."""
    if a is INFINITY and b is INFINITY:
        return 0.0
    if a is INFINITY:
        a, b = b, a
    av = np.asarray(a, dtype=float)
    if b is INFINITY:
        return 1.0 / math.sqrt(1.0 + float(av @ av))
    bv = np.asarray(b, dtype=float)
    return float(np.hypot(*(av - bv)) / (math.sqrt(1.0 + av @ av) * math.sqrt(1.0 + bv @ bv)))


def abs_ratio(a, b, c, d) -> float:
    """Absolute (cross) ratio |a,b,c,d| = q(a,c) q(b,d) / (q(a,b) q(c,d)).

    Mobius invariant; any argument may be the INFINITY marker, handled by the
    chordal limit (equivalently, dropping the Euclidean factors containing it).
    """
    num = chordal_dist(a, c) * chordal_dist(b, d)
    den = chordal_dist(a, b) * chordal_dist(c, d)
    if den == 0.0:
        raise DegenerateGeometryError("absolute ratio undefined: coincident pair in denominator")
    return num / den


def rho_disk(a, b) -> float:
    """Hyperbolic distance in the unit disk via the geodesic-endpoint absolute ratio.

    The circle through a, b orthogonal to the unit circle meets it at the
    geodesic endpoints a*, b*; rho = log |a*, a, b, b*|.  Diameters (a, b
    collinear with 0) use the endpoint pair +/- u directly.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av @ av >= 1.0 or bv @ bv >= 1.0:
        raise DomainError("rho_disk requires points strictly inside the unit disk")
    if np.all(av == bv):
        return 0.0
    cross = av[0] * bv[1] - av[1] * bv[0]
    if abs(cross) <= 1e-14 * max(1.0, float(np.hypot(*av)) * float(np.hypot(*bv))):
        u = bv - av
        u = u / np.hypot(*u)
        e1, e2 = u, -u
    else:
        # center z of the orthogonal circle solves 2 z.a = 1+|a|^2, 2 z.b = 1+|b|^2
        mat = 2.0 * np.array([av, bv])
        rhs = np.array([1.0 + av @ av, 1.0 + bv @ bv])
        z = np.linalg.solve(mat, rhs)
        nz = float(np.hypot(*z))
        zhat = z / nz
        zperp = np.array([-zhat[1], zhat[0]])
        off = math.sqrt(max(0.0, 1.0 - 1.0 / (nz * nz)))
        e1 = zhat / nz + off * zperp
        e2 = zhat / nz - off * zperp
    if np.hypot(*(e1 - av)) <= np.hypot(*(e1 - bv)):
        a_star, b_star = e1, e2
    else:
        a_star, b_star = e2, e1
    num = np.hypot(*(a_star - bv)) * np.hypot(*(av - b_star))
    den = np.hypot(*(a_star - av)) * np.hypot(*(bv - b_star))
    return float(math.log(num / den))


def _point_in_polygon(pt: np.ndarray, poly: np.ndarray) -> bool:
    x, y = pt
    xs, ys = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(xs, -1), np.roll(ys, -1)
    straddle = (ys > y) != (yn > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = xs + (y - ys) * (xn - xs) / (yn - ys)
    hits = straddle & (x < xint)
    return bool(hits.sum() % 2 == 1)


def boundary_metric_estimate(boundary: Polyline, a, b, mode: str = "AbsoluteRatio") -> float:
    """Lower estimate of the absolute-ratio metric delta_G or the Apollonian metric alpha_G.

    The supremum over boundary pairs (c, d) is taken over the polyline's
    vertices, so the value is a lower bound converging as sampling refines.

    AbsoluteRatio: delta_G(a,b) = log(1 + sup |a,c,b,d|).
    Apollonian:    alpha_G(a,b) = sup log |c,a,b,d| (>= 0, symmetric).
    """
    if mode not in ("AbsoluteRatio", "Apollonian"):
        raise DomainError(f"unknown boundary metric mode {mode!r}")
    if not boundary.closed:
        raise DomainError("boundary must be a closed polyline")
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    poly = boundary.points
    for name, p in (("a", av), ("b", bv)):
        if not _point_in_polygon(p, poly):
            raise DomainError(f"point {name} must lie strictly inside the boundary")
    if np.all(av == bv):
        return 0.0
    pa = np.hypot(poly[:, 0] - av[0], poly[:, 1] - av[1])
    pb = np.hypot(poly[:, 0] - bv[0], poly[:, 1] - bv[1])
    if mode == "AbsoluteRatio":
        cd = _dist(poly[:, None], poly[None])
        ab = float(np.hypot(*(av - bv)))
        ratio = ab * cd / (pa[:, None] * pb[None, :])
        return float(math.log1p(ratio.max()))
    # Apollonian: sup over (c, d) of log(|c-a| |b-d| / (|c-b| |a-d|)) -- the
    # ratio factorizes, so the sup is a product of two one-dimensional sups
    sup_c = (pa / pb).max()
    sup_d = (pb / pa).max()
    return float(math.log(sup_c * sup_d))
