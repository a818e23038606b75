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
from collections import namedtuple
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
_ORIENT_BOUND = 3.4e-16  # (3 + 16 eps) eps, eps = 2^-53, rounded up
_ORIENT_FLOOR = 1e-290  # below this the products may have lost digits to underflow
# ahlfors_constant holds an (n//2 + 1) x n float64 arc table: a 38 MB peak at
# n = 3072 (Koch level 5), so near 67 MB at the cap by the n^2 scaling
_AHLFORS_MAX_VERTICES = 4096
# the full triangle-condition search is cubic in n: about 1 s at n = 1024 on
# 2 vCPU, and each doubling multiplies the time by about 8
_TRIANGLE_MAX_VERTICES = 1024
_BOX_MAX_SAMPLES = 20_000_000  # box_dimension's densified samples at one scale
_PAIR_BLOCK = 1 << 18  # table entries per row block of _blockwise
_SCALE_TOP = 509  # prepared points lie below 2^509 (see _prepare)


def _as_points(data, min_points: int, name: str) -> np.ndarray:
    pts = np.asarray(data, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError(f"{name} must be an (n, 2) array of plane points")
    if pts.shape[0] < min_points:
        raise DomainError(f"{name} needs at least {min_points} points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise DomainError(f"{name} contains non-finite coordinates")
    return pts


def _edges(pts: np.ndarray, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) vertices of each edge; a closed polyline's last edge runs from its last vertex to its first."""
    return (pts, np.roll(pts, -1, axis=0)) if closed else (pts[:-1], pts[1:])


class Polyline(namedtuple("Polyline", ("points", "closed"))):
    """Ordered plane points; closed polylines treat last -> first as an edge.

    A polyline is a tuple (points, closed).  The points are a read-only copy
    of the input, checked on construction, ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, points, closed: bool = True) -> "Polyline":
        pts = _as_points(points, 2, "polyline").copy()
        pts.setflags(write=False)
        cur, nxt = _edges(pts, closed)
        if np.any(np.all(cur == nxt, axis=1)):
            raise DomainError("polyline has coincident consecutive vertices")
        return tuple.__new__(cls, (pts, closed))

    @classmethod
    def _make(cls, iterable) -> "Polyline":
        # the namedtuple default skips __new__; route it (and _replace) through the checks
        return cls(*iterable)

    @property
    def n_vertices(self) -> int:
        return self.points.shape[0]

    @property
    def n_edges(self) -> int:
        return self.n_vertices if self.closed else self.n_vertices - 1

    def edge_lengths(self) -> np.ndarray:
        cur, nxt = _edges(self.points, self.closed)
        return np.hypot(*(nxt - cur).T)

    def perimeter(self) -> float:
        return float(self.edge_lengths().sum())

    def diameter(self) -> float:
        """Largest distance between two vertices, over the corners of their hull; like every
        scale-invariant estimator here, the same bits at 2^k X as at X (times 2^k)."""
        pts, s, dist = _prepare(self.points)
        with np.errstate(over="ignore"):  # a diameter past the double range is inf
            return float(np.ldexp(_diameter(pts, dist), -s))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            writer.writerows([f"{x:.17g}", f"{y:.17g}"] for x, y in self.points.tolist())

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


@dataclass(frozen=True)  # a dataclass, so that dataclasses.replace applies (perfbench's self-test uses it)
class HyperplaneFit:
    """Best line through a base point: the base point, the line's unit direction, and the normalized deviation delta."""

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
    """Euclidean distances |p - q| over broadcast (..., 2) point arrays.

    dx*dx + dy*dy has the bits of the sum over the last axis of the squared
    difference, without that (..., 2) array and its strided reduction.
    """
    dx = p[..., 0] - q[..., 0]
    dy = p[..., 1] - q[..., 1]
    return np.sqrt(dx * dx + dy * dy)


def _hypot_dist(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`_dist` by ``np.hypot``, which squares no difference, so none underflows."""
    return np.hypot(p[..., 0] - q[..., 0], p[..., 1] - q[..., 1])


def _prepare(*arrays):
    """The point arrays scaled jointly by an exact power of two 2^s, then s and the distance kernel.

    Distances square coordinate differences and widths multiply two of them.
    The scale (``np.ldexp``, exact) brings the largest |coordinate| into
    [2^508, 2^509), so those squares and products, and sums of two, stay
    finite.  Coordinates of 2^-459 or more, or 0, differ by 0 or by at least
    2^-511, the ulp of 2^-459, so the squared distance of two distinct points
    stays normal unless a nonzero prepared coordinate lies below 2^-459;
    then the kernel is :func:`_hypot_dist`, and otherwise :func:`_dist`.
    So every scale-invariant estimator gives the same bits at 2^k X as at X.
    """
    a = np.abs(np.concatenate([np.ravel(x) for x in arrays]))
    top = float(a.max())
    s = _SCALE_TOP - math.frexp(top)[1] if math.isfinite(top) else 0  # its estimator refuses a non-finite point
    smallest = float(np.min(a, where=a > 0.0, initial=math.inf))  # of the nonzero |coordinates|
    dist = _hypot_dist if smallest < math.ldexp(1.0, -459 - s) else _dist
    return (*(np.ldexp(x, s) for x in arrays), s, dist)


def _blockwise(reduce, n_rows: int, n_cols: int, block) -> float:
    """``reduce`` (np.max or np.min) of the n_rows x n_cols table whose rows
    i:j ``block(i, j)`` returns, one row block at a time.

    Each block holds about _PAIR_BLOCK entries, so the peak is O(_PAIR_BLOCK)
    floats and not n_rows * n_cols; max and min do not depend on the order,
    so the result is the one the full table gives.
    """
    rows = max(1, _PAIR_BLOCK // n_cols)
    return float(reduce([reduce(block(i, i + rows)) for i in range(0, n_rows, rows)]))


def _diameter(pts: np.ndarray, dist=_dist) -> float:
    """Largest ``dist`` between two of the points; the farthest pair are hull vertices (Preparata & Shamos, 1985)."""
    hull = np.array(_convex_hull(pts) or pts[:1])  # one distinct point has no hull, and diameter 0
    return _blockwise(np.max, len(hull), len(hull), lambda i, j: dist(hull[i:j, None], hull[None]))


def relative_size(E, F) -> float:
    """Relative size min(d(E), d(F)) / d(E, F) of two disjoint point sets.

    Both sets are prepared together by :func:`_prepare`, so the value at
    2^k E, 2^k F has the bits of the value at E, F, and structure far below
    a far point keeps its distances.
    """
    e, f, _, dist = _prepare(_as_points(E, 1, "E"), _as_points(F, 1, "F"))
    gap = _blockwise(np.min, len(e), len(f), lambda i, j: dist(e[i:j, None], f[None]))
    if gap == 0.0:
        raise DegenerateGeometryError("relative_size requires disjoint sets (d(E,F) > 0)")
    return min(_diameter(e, dist), _diameter(f, dist)) / gap


def ahlfors_constant(curve: Polyline) -> float:
    """Three-point constant of a closed curve: max over vertex pairs (a, b) of
    min(d(C1), d(C2)) / |a - b|, the two arcs' diameters over the chord.

    Arc diameters are taken over arc vertices including the split points.
    Near 1 for circle-like curves; grows with fractality and for rooms-and-
    corridors shapes.  O(n^2) time by one running-maximum sweep that keeps
    the arc diameters of the runs up to half the curve, (n/2 + 1) x n floats
    and no pairwise tensors; more than 4096 vertices raise :class:`DomainError`.
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
    pts, _, dist = _prepare(curve.points)
    pts2 = np.concatenate([pts, pts])
    # cur[s] = diameter of the vertex run s..s+L (wrapping), by the interval recurrence
    # diam(s,L) = max(diam(s,L-1), diam(s+1,L-1), |v_s - v_{s+L}|); arc[L] keeps it for L <= n/2
    half = n // 2
    arc = np.zeros((half + 1, n))
    cur = np.zeros(2 * n)
    best = 0.0
    for length in range(1, n):
        m = 2 * n - length
        chord = dist(pts2[:m], pts2[length:])
        cur = np.maximum(np.maximum(cur[:m], cur[1:m + 1]), chord)
        if length <= half:
            arc[length] = cur[:n]
        if length >= n - half:
            # the pairs (s, s+L) and (s, s+n-L) split the curve into runs of lengths L and n-L,
            # and their chords are chord[s] and chord[s+n-L], as |v_{s+n-L} - v_{s+n}| = |v_s - v_{s+n-L}|
            if np.any(chord[:n] == 0.0):
                raise DegenerateGeometryError("curve passes through the same point twice")
            both = np.minimum(cur[:n], np.roll(arc[n - length], -length))
            best = max(best, float((both / chord[:n]).max()))
    return best


def triangle_condition_constant(curve: Polyline, adjacent_only: bool = False) -> float:
    """Largest (|a-b| + |b-c|) / |a-c| over ordered vertex triples of an open polyline.

    The strongest reading takes every i < j < k, in O(n^3) time over one
    n x n distance table; more than 1024 vertices raise :class:`DomainError`.
    ``adjacent_only`` restricts to consecutive triples, in O(n) time and
    memory.  Equals 1 exactly for monotone collinear points.
    """
    if curve.closed:
        raise DomainError("triangle_condition_constant applies to open polylines (curves through infinity)")
    n = curve.n_vertices
    if n < 3:
        raise DomainError("triangle condition needs at least 3 vertices")
    pts, _, dist = _prepare(curve.points)
    if adjacent_only:
        ac = dist(pts[:-2], pts[2:])
        if np.any(ac == 0.0):
            raise DegenerateGeometryError("degenerate triple with a = c")
        edge = dist(pts[:-1], pts[1:])
        return float(((edge[:-1] + edge[1:]) / ac).max())
    if n > _TRIANGLE_MAX_VERTICES:
        raise DomainError(f"the full triangle-condition search accepts at most {_TRIANGLE_MAX_VERTICES} "
                          f"vertices (about 1 s), got {n}; adjacent_only has no limit")
    d = dist(pts[:, None], pts[None])
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


def linear_approx_delta(E, x, r: float) -> HyperplaneFit:
    """Smallest normalized slab width delta with E inside B(x, r) lying within
    distance delta*r of a line through x; exact up to rounding.

    The half-width max_i |<p_i - x, n>| over the local points is the support
    function of the hull of those points and their reflections through x, a
    polygon symmetric about x, whose least value over unit normals n is taken
    at an edge normal.  So delta*r is the least distance from x to a hull edge
    line, and ``direction`` is that edge's unit vector with angle in [0, pi)
    (Houle & Toussaint, IEEE PAMI 10, 1988).
    """
    pts = _as_points(E, 2, "E")
    x = np.asarray(x, dtype=float)
    if not (r > 0):
        raise DomainError(f"radius must be positive, got {r}")
    if not np.any(np.all(pts == x, axis=1)):
        raise DomainError("base point must belong to the point set")
    base = (float(x[0]), float(x[1]))
    d = pts - x
    local = d[np.hypot(d[:, 0], d[:, 1]) <= r]
    if local.shape[0] < 2:
        raise DomainError("insufficient local points inside B(x, r)")
    local, s, _ = _prepare(local)  # the local differences, whatever lies outside B(x, r)
    hull = _convex_hull(np.concatenate((local, -local)))
    if not hull:  # every local point is x itself, so every line through x fits
        return HyperplaneFit(base=base, direction=(1.0, 0.0), delta=0.0)
    # distance |p x e| / |e| from x to the line through hull vertex p along edge e
    width, ex, ey = min((abs(px * (qy - py) - py * (qx - px)) / math.hypot(qx - px, qy - py), qx - px, qy - py)
                        for (px, py), (qx, qy) in zip(hull, hull[1:] + hull[:1]))
    phi = math.atan2(ey, ex) % math.pi
    m, e = math.frexp(r)  # width / (r 2^s) with the exponents of r and the scale taken out exactly
    return HyperplaneFit(base=base, direction=(math.cos(phi), math.sin(phi)), delta=math.ldexp(width / m, -(e + s)))


def _convex_hull(pts: np.ndarray) -> list:
    """Andrew's monotone chain over Python floats; the hull vertices as [x, y]
    lists in counterclockwise order, none for a single distinct point.

    A point leaves the chain only where :func:`_turn` certifies its turn not
    left, so the chain keeps exactly the hull's corners.  Each chain is fed
    only the running minima of its height from either end of the sorted
    points: any other point has a strictly lower point on each side, so lies
    strictly above the segment joining them and is no corner of that chain.
    The minima compare coordinates only, so the chains give the hull of all
    the points exactly.
    """
    srt = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    srt = srt[np.r_[True, np.any(srt[1:] != srt[:-1], axis=1)]]  # one copy of each point

    def build(seq, v):  # the chain over the points of seq whose heights v are running minima
        out = []
        for p in seq[(v == np.minimum.accumulate(v)) | (v == np.minimum.accumulate(v[::-1])[::-1])].tolist():
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    rev = srt[::-1]
    return build(srt, srt[:, 1])[:-1] + build(rev, -rev[:, 1])[:-1]


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
    local, s, _ = _prepare(local)  # the local points, whatever lies outside B(x, r)
    hull = np.array(_convex_hull(local))
    h = hull.shape[0]
    best = 0.0
    for i in range(h - 2):
        u = hull[i + 1:] - hull[i]
        cross = np.abs(u[:, None, 0] * u[None, :, 1] - u[:, None, 1] * u[None, :, 0])
        best = max(best, float(cross.max()))
    m, e = math.frexp(r)  # best / (2 (r 2^s)^2) with the exponents of r and the scale taken out exactly
    return math.ldexp(0.5 * best / (m * m), -2 * (e + s))


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
    cur, nxt = _edges(pts, curve.closed)
    seg = nxt - cur
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    origin = pts.min(axis=0)
    counts = []
    for s in scales:
        m = np.maximum(1, np.ceil(lengths / (s / 3.0)).astype(int))
        total = int(m.sum()) + 1
        if total > _BOX_MAX_SAMPLES:
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
    """Hyperbolic distance rho(a, b) = 2 artanh(|a-b| / |1 - conj(a) b|) in the unit disk.

    With s = |1 - conj(a) b| = sqrt(|a-b|^2 + (1-|a|^2)(1-|b|^2)) this is
    log1p(2|a-b|(|a-b| + s) / ((1-|a|^2)(1-|b|^2))), each 1 - |z|^2 formed as
    (1-|z|)(1+|z|) (Beardon, The Geometry of Discrete Groups, 1983, 7.2).
    Relative error within 4 eps / min(1-|a|^2, 1-|b|^2), eps = 2^-52.
    """
    ax, ay = map(float, a)
    bx, by = map(float, b)
    na, nb = math.hypot(ax, ay), math.hypot(bx, by)
    if not (na < 1.0 and nb < 1.0):
        raise DomainError("rho_disk requires points strictly inside the unit disk")
    chord = math.hypot(ax - bx, ay - by)
    gap = (1.0 - na) * (1.0 + na) * ((1.0 - nb) * (1.0 + nb))
    return math.log1p(2.0 * chord * (chord + math.sqrt(chord * chord + gap)) / gap)


def _turn(o, a, b) -> int:
    """Sign of (a - o) x (b - o) over Python floats, exactly: 1 for a left turn o -> a -> b.

    The float determinant decides wherever it exceeds Shewchuk's error bound
    (3 + 16 eps) eps times the sum of its two products (Discrete Comput. Geom.
    18, 1997); the rest, nearly collinear or outside the normal range, are
    evaluated exactly in integers.
    """
    left, right = (a[0] - o[0]) * (b[1] - o[1]), (a[1] - o[1]) * (b[0] - o[0])
    size = abs(left) + abs(right)
    # speed only: the exact evaluation below gives the same signs, but without this
    # filter koch_curve(7).diameter() takes about twice as long
    if abs(left - right) > _ORIENT_BOUND * size and size > _ORIENT_FLOOR:
        return (left > right) - (left < right)
    # a double is n / 2^k with k <= 1074, so 2^1074 times it is an integer
    (ox, oy), (ax, ay), (bx, by) = ([n << (1075 - d.bit_length()) for n, d in map(float.as_integer_ratio, p)]
                                    for p in (o, a, b))
    exact = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    return (exact > 0) - (exact < 0)


def _point_in_polygon(pt: np.ndarray, poly: np.ndarray) -> bool:
    """Whether pt lies strictly inside the closed polygon; a point on an edge or a vertex does not.

    The crossing test, with each crossing decided by the exact orientation
    :func:`_turn` of pt against its edge rather than by a rounded intersection
    abscissa.  Only the edges whose box holds pt or whose y-span straddles it
    are decided: the others neither hold pt nor cross its ray.
    """
    x, y = pt = [float(c) for c in pt]
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    nxt = np.roll(poly, -1, axis=0)
    (xs, ys), (xn, yn) = poly.T, nxt.T
    in_box = ((np.minimum(xs, xn) <= x) & (x <= np.maximum(xs, xn))
              & (np.minimum(ys, yn) <= y) & (y <= np.maximum(ys, yn)))
    crosses = (ys > y) != (yn > y)
    inside = False
    i = np.flatnonzero(in_box | crosses)
    for p, q, box, cross in zip(poly[i].tolist(), nxt[i].tolist(), in_box[i].tolist(), crosses[i].tolist()):
        sign = _turn(p, q, pt)
        if box and sign == 0:
            return False
        # pt is left of the crossing exactly when it is left of an upward edge or right of a downward one
        inside ^= cross and (sign > 0) == (q[1] > p[1])
    return inside


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
    poly, av, bv, _, dist = _prepare(boundary.points, np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    pa = np.hypot(poly[:, 0] - av[0], poly[:, 1] - av[1])
    pb = np.hypot(poly[:, 0] - bv[0], poly[:, 1] - bv[1])
    for name, p in (("a", av), ("b", bv)):
        if not _point_in_polygon(p, poly):
            raise DomainError(f"point {name} must lie strictly inside the boundary")
    if mode == "AbsoluteRatio":
        # sup over (c, d) of |a - b| |c - d| / (|c - a| |d - b|), one row block of c at a time
        ab = float(np.hypot(*(av - bv)))
        n = len(poly)
        return math.log1p(_blockwise(np.max, n, n, lambda i, j: ab * dist(poly[i:j, None], poly[None])
                                     / (pa[i:j, None] * pb[None, :])))
    # Apollonian: sup over (c, d) of log(|c-a| |b-d| / (|c-b| |a-d|)) -- the
    # ratio factorizes, so the sup is a product of two one-dimensional sups
    sup_c = (pa / pb).max()
    sup_d = (pb / pa).max()
    return float(math.log(sup_c * sup_d))
