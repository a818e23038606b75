"""Quasicircle generators and geometric-constant estimators."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qcfun import geometry
from qcfun import (
    INFINITY,
    DegenerateGeometryError,
    DomainError,
    Polyline,
    PolylineFormatError,
    abs_ratio,
    ahlfors_constant,
    boundary_metric_estimate,
    box_dimension,
    chordal_dist,
    koch_curve,
    linear_approx_delta,
    regular_ngon,
    relative_size,
    rho_disk,
    thickness_constant,
    triangle_condition_constant,
)

# regression values recorded from the first vetted run (brute-force confirmed)
KOCH4_AHLFORS = 1.527525231651951
SPIRAL_TRIANGLE_M = 6.4783846884789185
KOCH6_TIP_DELTA = 0.545544725589981
KOCH5_THICKNESS = 0.4812352209466188
# box dimensions recorded before the per-edge sampling was vectorised; pinned exactly
KOCH7_BOX_THIRDS = 1.2785169975830948
SPIRAL_BOX = 1.0043454076138305
NGON12_BOX = 1.027296399963229


def spiral_polyline():
    t = np.linspace(0.0, 4.0 * math.pi, 120)
    pts = np.column_stack([np.exp(0.1 * t) * np.cos(t), np.exp(0.1 * t) * np.sin(t)])
    return Polyline(pts, closed=False)


def slab_oracle(E, x, r):
    """Least slab half-width through x over r, by every candidate direction in integer arithmetic.

    The half-width max_k |p_k x u| / |u| over directions u is least where u
    runs along p_i - p_j or p_i + p_j (two |sin| arcs cross) or along p_i
    (one vanishes).  The local differences p = e - x are scaled to integers,
    so every cross product and comparison is exact.
    """
    d = np.asarray(E, dtype=float) - np.asarray(x, dtype=float)
    loc = d[np.hypot(d[:, 0], d[:, 1]) <= r].tolist()
    scale = max(Fraction(v).denominator for p in loc for v in p)
    pts = [(int(Fraction(px) * scale), int(Fraction(py) * scale)) for px, py in loc]
    pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:]]
    cands = [(px - qx, py - qy) for (px, py), (qx, qy) in pairs]
    cands += [(px + qx, py + qy) for (px, py), (qx, qy) in pairs] + pts
    best = None  # (c^2, |u|^2) of the least c / |u| so far
    for ux, uy in cands:
        n2 = ux * ux + uy * uy
        if n2:
            c = max(abs(px * uy - py * ux) for px, py in pts)
            if best is None or c * c * best[1] < best[0] * n2:
                best = (c * c, n2)
    return 0.0 if best is None else math.sqrt(Fraction(best[0], best[1] * scale * scale)) / r


def rho_by_geodesic_endpoints(a, b):
    """log |a*, a, b, b*|, a* and b* the ends of the geodesic through a and b (a, b not on one diameter)."""
    av, bv = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # center z of the orthogonal circle solves 2 z.a = 1 + |a|^2, 2 z.b = 1 + |b|^2
    z = np.linalg.solve(2.0 * np.array([av, bv]), np.array([1.0 + av @ av, 1.0 + bv @ bv]))
    nz = float(np.hypot(*z))
    zhat = z / nz
    off = math.sqrt(1.0 - 1.0 / (nz * nz)) * np.array([-zhat[1], zhat[0]])
    e1, e2 = zhat / nz + off, zhat / nz - off
    if np.hypot(*(e1 - av)) > np.hypot(*(e1 - bv)):
        e1, e2 = e2, e1
    return math.log(abs_ratio(e1, av, bv, e2))


def hypot_diameter(pts):
    return max(math.hypot(*(a - b)) for a in pts for b in pts)


def ahlfors_by_hypot(pts):
    """The Ahlfors constant by every vertex pair and its two arcs, all distances by math.hypot."""
    best, n = 0.0, len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            arcs = hypot_diameter(pts[i:j + 1]), hypot_diameter(np.vstack([pts[j:], pts[:i + 1]]))
            best = max(best, min(arcs) / math.hypot(*(pts[i] - pts[j])))
    return best


def ahlfors_full_table(pts):
    """The Ahlfors constant from the full n x n arc table, with every chord formed a second time."""
    n = len(pts)
    pts2 = np.concatenate([pts, pts])
    arc, cur = np.zeros((n, n)), np.zeros(2 * n)
    for length in range(1, n):
        m = 2 * n - length
        cur = np.maximum(np.maximum(cur[:m], cur[1:m + 1]), geometry._dist(pts2[:m], pts2[length:]))
        arc[length] = cur[:n]
    return max(float((np.minimum(arc[length, :n - length], arc[n - length, length:])
                      / geometry._dist(pts2[:n - length], pts2[length:n])).max()) for length in range(1, n))


def all_pairs_diameter(pts):
    n = len(pts)
    return geometry._blockwise(np.max, n, n, lambda i, j: geometry._dist(pts[i:j, None], pts[None]))


def exact_hull(pts):
    """Andrew's monotone chain with every turn decided in rational arithmetic."""
    srt = sorted({(float(x), float(y)) for x, y in pts})

    def turn(o, a, b):
        (ox, oy), (ax, ay), (bx, by) = ([Fraction(c) for c in p] for p in (o, a, b))
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return [list(p) for p in build(srt)[:-1] + build(srt[::-1])[:-1]] if len(srt) > 1 else []


def near_collinear_sets(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        t = rng.uniform(-1.0, 1.0, int(rng.integers(3, 40)))
        noise = rng.normal(scale=10.0 ** -float(rng.integers(8, 17)), size=len(t))
        yield np.column_stack([t, rng.uniform(-2.0, 2.0) * t + noise])


def _shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


class TestKoch:
    def test_level_zero_triangle(self):
        k = koch_curve(0)
        assert k.n_edges == 3
        assert k.perimeter() == pytest.approx(3.0, rel=1e-15)

    def test_level_one(self):
        k = koch_curve(1)
        assert k.n_edges == 12
        assert k.perimeter() == pytest.approx(4.0, rel=1e-13)

    def test_level_five_edge_count(self):
        assert koch_curve(5).n_edges == 3 * 4 ** 5

    @pytest.mark.parametrize("level", [0, 1, 3, 6])
    def test_perimeter_recurrence(self, level):
        assert koch_curve(level).perimeter() == pytest.approx(
            3.0 * (4.0 / 3.0) ** level, rel=1e-12)

    def test_outward_bumps_grow_area(self):
        areas = [_shoelace(koch_curve(lv).points) for lv in (0, 1, 2, 3)]
        assert all(a > 0 for a in areas)  # positive orientation
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_generic_angle_shrinks_perimeter(self):
        assert koch_curve(3, 30.0).perimeter() < koch_curve(3, 60.0).perimeter()

    def test_guards(self):
        with pytest.raises(DomainError):
            koch_curve(13)
        with pytest.raises(DomainError):
            koch_curve(-1)
        with pytest.raises(DomainError):
            koch_curve(2, 0.0)
        with pytest.raises(DomainError):
            koch_curve(2, 90.0)

    @pytest.mark.parametrize("n,radius", [(2, 1.0), (2.5, 1.0), (5, 0.0), (5, -1.0)])
    def test_ngon_guards(self, n, radius):
        with pytest.raises(DomainError):
            regular_ngon(n, radius)


class TestRelativeSize:
    def test_unit_segments(self):
        e = np.array([[0.0, 0.0], [1.0, 0.0]])
        f = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert relative_size(e, f) == pytest.approx(1.0, rel=1e-14)

    def test_singleton_is_zero(self):
        assert relative_size(np.array([[0.0, 0.0]]), np.array([[5.0, 0.0]])) == 0.0

    def test_square_corners(self):
        e = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        f = e + np.array([3.0, 0.0])
        assert relative_size(e, f) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(11)
        e, f = rng.normal(size=(5, 2)), rng.normal(size=(4, 2)) + 8.0
        assert relative_size(e, f) == pytest.approx(relative_size(f, e), rel=1e-14)
        for s in (0.02, 7.0):
            assert relative_size(s * e, s * f) == pytest.approx(
                relative_size(e, f), rel=1e-12)

    def test_degenerate(self):
        e = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateGeometryError):
            relative_size(e, e)

    def test_far_point(self):
        # the far point scales the near ones down to ~1e-187, where their squared
        # differences underflow (DegenerateGeometryError before); hypot keeps them
        square = 1e-40 * np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        e, f = square + (3e-40, 0.0), square[:3] - (3e-40, 0.0)
        far_f = np.vstack([f, [(1e300, 2e300)]])
        near, far = relative_size(e, f), relative_size(e, far_f)
        want = min(hypot_diameter(e), hypot_diameter(far_f)) / min(math.hypot(*(a - b)) for a in e for b in far_f)
        ulp = math.ulp(want)
        assert abs(far - near) <= 4 * ulp and abs(far - want) <= 4 * ulp

    @pytest.mark.parametrize("points", [np.zeros(3), np.zeros((3, 3)), np.empty((0, 2)),
                                        [[0.0, 0.0], [math.nan, 1.0]], [[0.0, 0.0], [math.inf, 1.0]]])
    def test_point_set_guards(self, points):
        with pytest.raises(DomainError):
            relative_size(points, np.array([[5.0, 5.0]]))

    def test_blocks_match_the_full_table(self, monkeypatch):
        # blocks of 7 distances split both point sets unevenly; max and min are order-free
        rng = np.random.default_rng(5)
        e, f = rng.normal(size=(40, 2)), rng.normal(size=(13, 2)) + 6.0
        full = geometry._dist(e[:, None], f[None])
        diam = geometry._dist(e[:, None], e[None]).max()
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", 7)
        assert geometry._blockwise(np.min, 40, 13, lambda i, j: geometry._dist(e[i:j, None], f[None])) == full.min()
        assert geometry._diameter(e) == diam
        assert relative_size(e, f) == min(diam, geometry._dist(f[:, None], f[None]).max()) / full.min()

    @pytest.mark.parametrize("t", [1e-158, 1e-161, 1e-165, 1e-300])
    def test_tiny_structure_beside_unit_points(self, t):
        # squared differences of the tiny set underflowed: 8e-9 off at 1e-158, 0.6% at
        # 1e-161, and 0.0 from 1e-165 on
        e, f = np.array([(0.0, 0.0), (t, 0.0), (0.0, t)]), np.array([(1.0, 0.0), (1.0, 1.0)])
        want = min(hypot_diameter(e), hypot_diameter(f)) / min(math.hypot(*(a - b)) for a in e for b in f)
        assert abs(relative_size(e, f) - want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("k", [-960, -600, 600, 960])
    def test_same_bits_at_every_power_of_two(self, k):
        # the scaled branch took np.hypot and the unscaled one squares: their bits differed
        rng = np.random.default_rng(29)
        for _ in range(20):
            e, f = rng.normal(size=(int(rng.integers(1, 12)), 2)), rng.normal(size=(int(rng.integers(1, 12)), 2)) + 4.0
            assert relative_size(2.0 ** k * e, 2.0 ** k * f) == relative_size(e, f)

    def test_diameter_peak_memory(self):
        # n = 3072: the full n x n x 2 difference tensor peaked at 377 MB
        curve = koch_curve(5)
        tracemalloc.start()
        try:
            curve.diameter()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestHullDiameter:
    """Diameters from the corners of the convex hull, which hold the farthest pair."""

    def test_equals_the_all_pairs_maximum(self):
        sets = [koch_curve(4).points, koch_curve(5).points]
        sets += [regular_ngon(n).points for n in (3, 4, 5, 7, 64, 1000, 4095, 4096)]
        sets += list(near_collinear_sets(18, 40))
        for pts in sets:
            assert Polyline(pts, closed=False).diameter() == all_pairs_diameter(pts)

    def test_farthest_pair_by_rationals(self):
        def square(pair):
            (ax, ay), (bx, by) = pair
            return (Fraction(ax) - Fraction(bx)) ** 2 + (Fraction(ay) - Fraction(by)) ** 2

        rng = np.random.default_rng(44)
        sets = list(near_collinear_sets(45, 20)) + [rng.normal(size=(int(rng.integers(2, 30)), 2)) for _ in range(20)]
        for pts in sets:
            a, b = max(((a, b) for a in pts for b in pts), key=square)
            assert geometry._diameter(pts) == geometry._dist(a, b)

    def test_hull_keeps_exactly_the_corners(self):
        # the float cross product popped true corners or kept collinear points
        # on 21 of these sets and on the Koch curve
        for pts in near_collinear_sets(18, 200):
            assert geometry._convex_hull(pts) == exact_hull(pts)
        koch = koch_curve(4).points  # with many runs of points on one vertical line
        assert geometry._convex_hull(koch) == exact_hull(koch)


class TestAhlfors:
    def test_circle_proxy(self):
        assert ahlfors_constant(regular_ngon(1000)) == pytest.approx(1.0, abs=1e-3)

    def test_koch_regression(self):
        assert ahlfors_constant(koch_curve(4)) == pytest.approx(KOCH4_AHLFORS, rel=1e-9)

    def test_rooms_and_corridors_blowup(self):
        # a 1 x 0.01 rectangle outline: mid-side chords force a large constant
        xs = np.linspace(0.0, 1.0, 100)
        top = np.column_stack([xs, np.full(100, 0.01)])
        bottom = np.column_stack([xs[::-1], np.zeros(100)])
        rect = Polyline(np.vstack([top, bottom]), closed=True)
        assert ahlfors_constant(rect) > 10.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(2):
            ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, 15))
            rad = rng.uniform(0.5, 1.5, 15)
            pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
            poly = Polyline(pts, closed=True)
            best = 0.0
            n = len(pts)
            for i in range(n):
                for j in range(i + 1, n):
                    arc1 = pts[i:j + 1]
                    arc2 = np.vstack([pts[j:], pts[:i + 1]])

                    def diam(a):
                        d = a[:, None, :] - a[None, :, :]
                        return np.sqrt((d * d).sum(axis=2)).max()

                    chord = float(np.hypot(*(pts[i] - pts[j])))
                    best = max(best, min(diam(arc1), diam(arc2)) / chord)
            assert ahlfors_constant(poly) == pytest.approx(best, rel=1e-12)

    def test_similarity_invariance(self):
        poly = koch_curve(2)
        base = ahlfors_constant(poly)
        th = 0.83
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        moved = Polyline(3.7 * poly.points @ rot.T + np.array([5.0, -2.0]), closed=True)
        assert ahlfors_constant(moved) == pytest.approx(base, rel=1e-10)

    def test_guards(self):
        with pytest.raises(DomainError):
            ahlfors_constant(spiral_polyline())
        with pytest.raises(DomainError):
            ahlfors_constant(Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])))
        touching = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                      [0.0, 0.0], [-1.0, 0.0], [-1.0, 1.0]]), closed=True)
        with pytest.raises(DegenerateGeometryError):
            ahlfors_constant(touching)

    def test_size_guard_names_limit(self):
        # refused before the n x n arc table is allocated
        with pytest.raises(DomainError, match="4096"):
            ahlfors_constant(regular_ngon(4097))

    def test_peak_memory_is_half_an_arc_table(self):
        # n = 768: the arc rows up to n/2 take 2.4 MB, the full arc table 4.7 MB, and
        # pairwise (2n, 2n, 2) tensors would take 90 MB
        curve = koch_curve(4)
        tracemalloc.start()
        try:
            ahlfors_constant(curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_half_table_matches_the_full_table(self):
        # one pass over the arc rows up to n/2 and each chord formed once, both parities of n
        rng = np.random.default_rng(31)
        curves = [koch_curve(2).points, koch_curve(3, 50.0).points]
        for n in range(4, 40):
            ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
            curves.append(rng.uniform(0.5, 1.5, (n, 1)) * np.column_stack([np.cos(ang), np.sin(ang)]))
        for pts in curves:
            assert ahlfors_constant(Polyline(pts)) == ahlfors_full_table(pts)

    @pytest.mark.parametrize("pts", [
        # a 1e-40 square beside a far vertex, and a unit curve with 1e-170 structure: the
        # squared differences of the small structure underflowed to a spurious coincidence
        np.vstack([1e-40 * np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]), [(1e300, 5e299)]]),
        np.array([(0.0, 0.0), (1e-170, 0.0), (1e-170, 1e-170), (0.0, 2e-170), (-1.0, 1.0), (-1.0, -0.5)]),
    ])
    def test_tiny_structure(self, pts):
        want = ahlfors_by_hypot(pts)
        assert abs(ahlfors_constant(Polyline(pts)) - want) <= 4 * math.ulp(want)


class TestTriangleCondition:
    def test_collinear_is_one(self):
        line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0], [4.0, 0.0]]),
                        closed=False)
        assert triangle_condition_constant(line) == pytest.approx(1.0, rel=1e-14)

    def test_right_angle(self):
        corner = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), closed=False)
        assert triangle_condition_constant(corner) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_spiral_regression(self):
        assert triangle_condition_constant(spiral_polyline()) == pytest.approx(
            SPIRAL_TRIANGLE_M, rel=1e-9)

    def test_adjacent_reading_is_weaker(self):
        sp = spiral_polyline()
        assert triangle_condition_constant(sp, adjacent_only=True) <= triangle_condition_constant(sp)

    def test_adjacent_reading_matches_distance_table(self):
        sp = spiral_polyline()
        p = sp.points
        d = np.sqrt(((p[:, None] - p[None]) ** 2).sum(axis=-1))
        i = np.arange(sp.n_vertices - 2)
        expected = float(((d[i, i + 1] + d[i + 1, i + 2]) / d[i, i + 2]).max())
        assert triangle_condition_constant(sp, adjacent_only=True) == expected

    def test_adjacent_reading_in_linear_memory(self):
        n = 50_000
        x = np.linspace(0.0, 1.0, n)
        zigzag = Polyline(np.column_stack((x, 1e-5 * (np.arange(n) % 2))), closed=False)
        tracemalloc.start()
        try:
            triangle_condition_constant(zigzag, adjacent_only=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # an n x n table would be 20 GB

    def test_far_point(self):
        # the far point fixed the scale, and the near points' squared differences
        # underflowed: DegenerateGeometryError with it, 2.414 without it
        square = 1e-40 * np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        near = np.vstack([square + (3e-40, 0.0), square[:3] - (3e-40, 0.0)])
        for pts in (near, np.vstack([near, [(1e300, 2e300)]])):
            assert triangle_condition_constant(Polyline(pts, closed=False)) == 2.414213562373095

    def test_full_search_vertex_limit(self):
        x = np.linspace(0.0, 1.0, 1025)
        long = Polyline(np.column_stack((x, np.sin(7.0 * x))), closed=False)
        with pytest.raises(DomainError, match="1024"):
            triangle_condition_constant(long)

    def test_guards(self):
        with pytest.raises(DomainError):
            triangle_condition_constant(koch_curve(1))
        with pytest.raises(DomainError, match="3 vertices"):
            triangle_condition_constant(Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), closed=False))
        collinear_back = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]), closed=False)
        with pytest.raises(DegenerateGeometryError):
            triangle_condition_constant(collinear_back, adjacent_only=True)
        back = Polyline(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 1.0]][:3]),
                        closed=False)
        with pytest.raises(DegenerateGeometryError):
            triangle_condition_constant(back)


class TestLinearApproxDelta:
    def test_collinear_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        fit = linear_approx_delta(pts, (1.0, 0.0), 2.5)
        assert fit.delta < 1e-12

    def test_isoceles_bump_at_apex(self):
        # apex at x: the horizontal line through the apex is optimal, delta = h/r
        h, r = 0.25, 2.0
        pts = np.array([[-1.0, 0.0], [0.0, h], [1.0, 0.0]])
        fit = linear_approx_delta(pts, (0.0, h), r)
        assert fit.delta == pytest.approx(h / r, rel=1e-9)

    def test_exact_against_candidate_directions(self):
        # seeded local sets of Koch curves and point clouds, and Koch tips at three edges
        rng = random.Random(61)
        sets = []
        for _ in range(16):
            E = koch_curve(3, rng.uniform(45.0, 70.0)).points
            sets.append((E, E[rng.randrange(len(E))], rng.uniform(0.08, 0.25)))
        for _ in range(8):
            E = np.array([[rng.gauss(0.0, 1.0), rng.gauss(0.0, 0.3)] for _ in range(rng.randrange(3, 25))])
            sets.append((E, E[rng.randrange(len(E))], rng.uniform(0.5, 3.0)))
        for level in (5, 6):
            k = koch_curve(level)
            edge = float(k.edge_lengths()[0])
            sets += [(k.points, k.points[i], 3.0 * edge) for i in (2, 6, 4 ** level + 2)]
        for E, x, r in sets:
            fit = linear_approx_delta(E, x, r)
            exact = slab_oracle(E, x, r)
            assert abs(fit.delta - exact) <= 1e-14 * max(exact, 1e-3)
            # the fitted line's own slab has that half-width, and its angle lies in [0, pi)
            (dx, dy), d = fit.direction, E - np.asarray(x)
            local = d[np.hypot(d[:, 0], d[:, 1]) <= r]
            assert abs(np.abs(local @ np.array([-dy, dx])).max() / r - fit.delta) <= 1e-12
            assert math.hypot(dx, dy) == pytest.approx(1.0, abs=1e-15)
            assert dy > 0.0 or (dy == 0.0 and dx > 0.0)

    def test_direction_angle_in_half_turn(self):
        # the least edges of the reflected hull are its horizontal sides, one of them at angle pi
        pts = np.array([[0.0, 0.0], [1.0, 0.1], [-1.0, -0.1], [1.0, -0.1]])
        fit = linear_approx_delta(pts, (0.0, 0.0), 2.0)
        assert fit.delta == pytest.approx(0.05, rel=1e-15)
        assert fit.direction == (1.0, 0.0)

    def test_single_distinct_local_point(self):
        # the base point twice: every line through x fits exactly
        fit = linear_approx_delta(np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]), (0.0, 0.0), 1.0)
        assert fit.delta == 0.0 and fit.direction == (1.0, 0.0)

    def test_koch_regression_and_brute_force_oracle(self):
        k6 = koch_curve(6)
        edge = float(k6.edge_lengths()[0])
        tip = tuple(k6.points[2])
        fit = linear_approx_delta(k6.points, tip, 3.0 * edge)
        assert fit.delta == pytest.approx(KOCH6_TIP_DELTA, rel=1e-6)
        # 3600-angle brute-force sweep oracle
        d = k6.points - np.asarray(tip)
        local = d[np.hypot(d[:, 0], d[:, 1]) <= 3.0 * edge]
        angles = np.linspace(0.0, math.pi, 3600, endpoint=False)
        normals = np.column_stack((-np.sin(angles), np.cos(angles)))
        brute = float(np.abs(local @ normals.T).max(axis=0).min()) / (3.0 * edge)
        assert abs(fit.delta - brute) <= 1e-4

    def test_flattening_trend_in_bump_angle(self):
        deltas = []
        for angle in (60.0, 40.0, 20.0, 10.0):
            kc = koch_curve(4, angle)
            idx = kc.n_vertices // 6
            fit = linear_approx_delta(kc.points, tuple(kc.points[idx]), 0.08 * kc.diameter())
            deltas.append(fit.delta)
        assert all(b < a for a, b in zip(deltas, deltas[1:]))

    def test_guards(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0]])
        with pytest.raises(DomainError):
            linear_approx_delta(pts, (0.0, 0.0), 1.0)  # only one local point
        with pytest.raises(DomainError, match="base point"):
            linear_approx_delta(pts, (0.3, 0.0), 1.0)
        with pytest.raises(DomainError, match="radius"):
            linear_approx_delta(pts, (0.0, 0.0), -1.0)
        with pytest.raises(DomainError, match="radius"):  # two local points at r = 0
            linear_approx_delta(np.array([[0.0, 0.0], [0.0, 0.0]]), (0.0, 0.0), 0.0)


class TestThickness:
    def test_collinear_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert thickness_constant(pts, (1.0, 0.0), 3.0) == 0.0

    def test_ball_inscribed_equilateral(self):
        r = 2.0
        center = np.array([0.3, -0.7])
        ang = np.array([0.5, 0.5 + 2.0 * math.pi / 3.0, 0.5 + 4.0 * math.pi / 3.0])
        pts = center + r * np.column_stack([np.cos(ang), np.sin(ang)])
        assert thickness_constant(pts, tuple(center), r) == pytest.approx(
            3.0 * math.sqrt(3.0) / 4.0, rel=1e-12)

    def test_koch_regression(self):
        k5 = koch_curve(5)
        value = thickness_constant(k5.points, tuple(k5.points[0]), k5.diameter() / 10.0)
        assert value == pytest.approx(KOCH5_THICKNESS, rel=1e-9)

    def test_guards(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            thickness_constant(pts, (0.0, 0.0), 0.5)  # only one local point
        with pytest.raises(DomainError, match="radius"):
            thickness_constant(pts, (0.0, 0.0), -1.0)

    @pytest.mark.parametrize("pts", [[[0.5, 0.5]] * 3, [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]])
    def test_fewer_than_three_hull_points(self, pts):
        assert thickness_constant(pts, (1.0, 1.0), 3.0) == 0.0


class TestBoxDimension:
    def test_segment(self):
        seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), closed=False)
        dim = box_dimension(seg, [0.05 / 2 ** k for k in range(6)])
        assert dim == pytest.approx(1.0, abs=0.05)

    def test_koch_level_seven(self):
        dim = box_dimension(koch_curve(7), [3.0 ** -k for k in range(2, 7)])
        assert dim == pytest.approx(math.log(4.0) / math.log(3.0), abs=0.05)

    def test_circle_proxy(self):
        dim = box_dimension(regular_ngon(1000), [0.4 / 2 ** k for k in range(6)])
        assert dim == pytest.approx(1.0, abs=0.05)

    def test_sampling_pinned_exactly(self):
        # each edge is cut into 4 to 78 samples at these scales, so per-edge
        # positions i * (1/k) are exercised, on closed and open curves
        assert box_dimension(koch_curve(7), [3.0 ** -k for k in range(1, 6)]) == KOCH7_BOX_THIRDS
        assert box_dimension(spiral_polyline(), [1.0, 0.5, 0.2, 0.1, 0.05]) == SPIRAL_BOX
        assert box_dimension(regular_ngon(12), [0.5, 0.2, 0.1, 0.05, 0.02]) == NGON12_BOX

    def test_guards(self):
        seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), closed=False)
        with pytest.raises(DomainError, match="at least 2 scales"):
            box_dimension(seg, [0.1])
        with pytest.raises(DomainError):
            box_dimension(seg, [0.1, 0.05])  # spans less than a decade
        with pytest.raises(DomainError, match="positive"):
            box_dimension(seg, [0.1, -0.001])
        for scales in ([0.01, math.inf], [math.nan, 0.01, 0.5]):  # these ended in numpy's LinAlgError
            with pytest.raises(DomainError, match="finite"):
                box_dimension(seg, scales)

    def test_sample_limit(self, monkeypatch):
        # scale 0.001 cuts the unit segment into 3000 samples
        seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]), closed=False)
        monkeypatch.setattr(geometry, "_BOX_MAX_SAMPLES", 2000)
        with pytest.raises(DomainError, match="too many samples"):
            box_dimension(seg, [0.1, 0.001])
        # each edge's count, about 1e300, wrapped in the int cast to 1: a slope of -2.9e-19
        with pytest.raises(DomainError, match="too many samples"):
            box_dimension(koch_curve(2), [1e-300, 1e-200])


class TestAbsRatio:
    def test_collinear_quadruple(self):
        for lam in (0.1, 0.5, 0.9):
            value = abs_ratio((-1.0, 0.0), (0.0, 0.0), (lam, 0.0), (1.0, 0.0))
            assert value == pytest.approx((1.0 + lam) / (1.0 - lam), rel=1e-13)

    def test_chordal_to_unit_point(self):
        assert chordal_dist((0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert chordal_dist((1.0, 0.0), INFINITY) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert chordal_dist(INFINITY, INFINITY) == 0.0

    @pytest.mark.parametrize("a, b", [((math.inf, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, math.nan)),
                                      ((-math.inf, 1.0), INFINITY)])
    def test_non_finite_coordinates(self, a, b):
        # (inf, 0) gave nan, and abs_ratio inherited it
        with pytest.raises(DomainError, match="INFINITY"):
            chordal_dist(a, b)
        with pytest.raises(DomainError, match="INFINITY"):
            abs_ratio(a, (1.0, 1.0), b, (2.0, 0.0))

    def test_inversion_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pts = rng.normal(size=(4, 2)) + np.array([0.5, 0.5])
            inverted = [p / (p @ p) for p in pts]
            assert abs_ratio(*pts) == pytest.approx(abs_ratio(*inverted), rel=1e-10)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(4, 2))
        th = 1.2
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        moved = [3.0 * rot @ p + np.array([1.0, -4.0]) for p in pts]
        assert abs_ratio(*pts) == pytest.approx(abs_ratio(*moved), rel=1e-10)

    def test_infinity_drops_factors(self):
        # |inf, b, c, d| = |b - d| / |c - d|
        value = abs_ratio(INFINITY, (0.0, 0.0), (2.0, 0.0), (1.0, 0.0))
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            abs_ratio((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0))


class TestRhoDisk:
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_radial_distance(self, lam):
        assert rho_disk((0.0, 0.0), (lam, 0.0)) == pytest.approx(
            math.log((1.0 + lam) / (1.0 - lam)), rel=1e-12)

    def test_coincident(self):
        assert rho_disk((0.3, -0.2), (0.3, -0.2)) == 0.0

    def test_rotation_invariance(self):
        a, b = np.array([0.11, -0.40]), np.array([0.50, 0.33])
        base = rho_disk(a, b)
        for th in (0.3, 1.1, 2.9):
            rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            assert rho_disk(rot @ a, rot @ b) == pytest.approx(base, abs=1e-12)

    def test_symmetry_and_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            a, b = 0.9 * rng.uniform(-0.7, 0.7, 2), 0.9 * rng.uniform(-0.7, 0.7, 2)
            lhs = rho_disk(a, b)
            assert lhs == pytest.approx(rho_disk(b, a), rel=1e-11)
            chord = float(np.hypot(*(a - b)))
            denom = math.sqrt(chord * chord + (1.0 - a @ a) * (1.0 - b @ b))
            assert lhs == pytest.approx(2.0 * math.atanh(chord / denom), rel=1e-10)

    def test_geodesic_endpoint_absolute_ratio(self):
        # the second algorithm: rho = log |a*, a, b, b*| through the endpoints of the geodesic
        rng = random.Random(405)
        for _ in range(40):
            a = [rng.uniform(-0.6, 0.6) for _ in range(2)]
            b = [rng.uniform(-0.6, 0.6) for _ in range(2)]
            assert rho_disk(a, b) == pytest.approx(rho_by_geodesic_endpoints(a, b), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            rho_disk((1.0, 0.0), (0.0, 0.0))
        with pytest.raises(DomainError):
            rho_disk((0.0, 0.0), (0.6, -0.8))


class TestBoundaryMetric:
    def test_disk_absolute_ratio_equals_hyperbolic(self):
        ngon = regular_ngon(1000)
        value = boundary_metric_estimate(ngon, (0.0, 0.0), (0.5, 0.0), "AbsoluteRatio")
        assert value == pytest.approx(math.log(3.0), abs=1e-2)

    def test_coincident_points(self):
        ngon = regular_ngon(64)
        for mode in ("AbsoluteRatio", "Apollonian"):
            assert boundary_metric_estimate(ngon, (0.2, 0.1), (0.2, 0.1), mode) == 0.0

    def test_apollonian_nonnegative_symmetric(self):
        ngon = regular_ngon(256)
        a, b = (0.3, 0.1), (-0.2, 0.4)
        v1 = boundary_metric_estimate(ngon, a, b, "Apollonian")
        v2 = boundary_metric_estimate(ngon, b, a, "Apollonian")
        assert v1 >= 0.0
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_absolute_ratio_blocks_match_the_full_table(self, monkeypatch):
        # blocks of 7 ratios split the 48 boundary vertices unevenly; the sup is order-free
        curve = koch_curve(2)
        poly = curve.points
        a, b = np.array([0.45, 0.3]), np.array([0.6, 0.25])
        pa = np.hypot(poly[:, 0] - a[0], poly[:, 1] - a[1])
        pb = np.hypot(poly[:, 0] - b[0], poly[:, 1] - b[1])
        ratio = float(np.hypot(*(a - b))) * geometry._dist(poly[:, None], poly[None]) / (pa[:, None] * pb[None, :])
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", 7)
        assert boundary_metric_estimate(curve, a, b, "AbsoluteRatio") == math.log1p(ratio.max())
        assert boundary_metric_estimate(curve, a, b, "Apollonian") == math.log((pa / pb).max() * (pb / pa).max())

    def test_absolute_ratio_peak_memory(self):
        # n = 3072: the n x n distance and ratio tables peaked at 377.5 MB
        curve = koch_curve(5)
        tracemalloc.start()
        try:
            boundary_metric_estimate(curve, (0.5, 0.29), (0.4, 0.2), "AbsoluteRatio")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6

    def test_boundary_vertex_is_not_inside(self):
        # the crossing test counts this vertex as inside; |c - a| = 0 there gave NaN or inf
        ngon = regular_ngon(64)
        for mode in ("AbsoluteRatio", "Apollonian"):
            with pytest.raises(DomainError, match="point a"):
                boundary_metric_estimate(ngon, ngon.points[20], (0.0, 0.0), mode)
            with pytest.raises(DomainError, match="point b"):
                boundary_metric_estimate(ngon, (0.0, 0.0), ngon.points[20], mode)

    def test_edge_midpoints(self):
        # the float midpoint of an edge lies on it, or just off it to either side; the
        # rounded crossing abscissa counted 30 of the 64 as inside, and the estimate
        # returned 3.73 where the metric is infinite.  Both orientations: the crossing
        # rule alone puts a point on an edge outside a counterclockwise polygon only.
        ngon = regular_ngon(64)
        points = ngon.points
        on = 0
        for i in range(len(points)):
            p, q = points[i], points[(i + 1) % len(points)]
            mid = 0.5 * (p + q)
            px, py = Fraction(p[0]), Fraction(p[1])
            side = ((Fraction(q[0]) - px) * (Fraction(mid[1]) - py)
                    - (Fraction(q[1]) - py) * (Fraction(mid[0]) - px))
            on += side == 0
            for curve in (ngon, Polyline(points[::-1].copy(), closed=True)):
                if side > 0:  # strictly inside
                    assert math.isfinite(boundary_metric_estimate(curve, mid, (0.0, 0.0), "Apollonian"))
                else:
                    with pytest.raises(DomainError, match="point a"):
                        boundary_metric_estimate(curve, mid, (0.0, 0.0), "AbsoluteRatio")
        assert on >= 16

    def test_exact_orientation_matches_rationals(self):
        # points within an ulp of an edge, where the float determinant cannot decide
        rng = random.Random(1720)
        poly = koch_curve(2).points
        for _ in range(200):
            i = rng.randrange(len(poly))
            p, q = poly[i], poly[(i + 1) % len(poly)]
            t = rng.random()
            pt = np.array([math.nextafter(p[0] + t * (q[0] - p[0]), rng.choice((-1.0, 2.0))),
                           p[1] + t * (q[1] - p[1])])
            for j, (a, b) in enumerate(zip(poly.tolist(), np.roll(poly, -1, axis=0).tolist())):
                ax, ay = Fraction(a[0]), Fraction(a[1])
                exact = ((Fraction(b[0]) - ax) * (Fraction(pt[1]) - ay)
                         - (Fraction(b[1]) - ay) * (Fraction(pt[0]) - ax))
                assert geometry._turn(a, b, pt.tolist()) == (exact > 0) - (exact < 0), (i, j)

    def test_guards(self):
        ngon = regular_ngon(64)
        for outside in ((2.0, 0.0), (math.nan, 0.0), (0.0, -math.inf)):
            with pytest.raises(DomainError):
                boundary_metric_estimate(ngon, outside, (0.0, 0.0), "AbsoluteRatio")
            with pytest.raises(DomainError):  # a non-finite point scales no boundary past the double range
                boundary_metric_estimate(regular_ngon(64, 1e300), 1e300 * np.asarray(outside), (0.0, 0.0), "Apollonian")
        with pytest.raises(DomainError):
            boundary_metric_estimate(ngon, (0.0, 0.0), (0.5, 0.0), "Poincare")
        with pytest.raises(DomainError):
            boundary_metric_estimate(spiral_polyline(), (0.0, 0.0), (0.5, 0.0), "Apollonian")
        with pytest.raises(DomainError, match="closed"):
            boundary_metric_estimate(Polyline(ngon.points, closed=False), (0.0, 0.0), (0.5, 0.0), "Apollonian")


def _scale_invariant_estimates(k):
    """Every scale-invariant estimator at 2^k times four point sets; the linear fit as (delta, direction).

    The fourth set, a 1e-200 cluster beside unit points, spans more than a scale
    by 2^+-960 keeps exact, so it runs at 2^(k // 4).
    """
    s = 2.0 ** k
    ngon, koch = regular_ngon(16).points * s, koch_curve(2).points * s
    graph = np.cumsum(np.random.default_rng(20).uniform(0.1, 1.0, (20, 2)), axis=0) * s
    fit = linear_approx_delta(koch, koch[5], 0.5 * s)
    cluster = 1e-200 * np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 2.0)]) * 2.0 ** (k // 4)
    unit = np.array([(-1.0, 1.0), (-1.0, -0.5), (-0.5, -1.0)]) * 2.0 ** (k // 4)
    return {
        "tiny_relative_size": relative_size(cluster, unit),
        "tiny_ahlfors": ahlfors_constant(Polyline(np.vstack([cluster, unit]))),
        "tiny_triangle": triangle_condition_constant(Polyline(np.vstack([cluster, unit[:1]]), closed=False)),
        "tiny_diameter": Polyline(cluster).diameter() / 2.0 ** (k // 4),
        "ahlfors_ngon": ahlfors_constant(Polyline(ngon)),
        "ahlfors_koch": ahlfors_constant(Polyline(koch)),
        "triangle": triangle_condition_constant(Polyline(graph, closed=False)),
        "triangle_adjacent": triangle_condition_constant(Polyline(graph, closed=False), adjacent_only=True),
        "relative_size": relative_size(koch[:10], koch[20:]),
        "delta": (fit.delta, fit.direction),
        "thickness": thickness_constant(koch, koch[5], 0.5 * s),
        "absolute_ratio": boundary_metric_estimate(Polyline(ngon), ngon[0] * 0.2, ngon[5] * -0.3, "AbsoluteRatio"),
        "apollonian": boundary_metric_estimate(Polyline(ngon), ngon[0] * 0.2, ngon[5] * -0.3, "Apollonian"),
        "diameters": [Polyline(pts).diameter() / s for pts in (ngon, koch, graph)],
    }


class TestScaleInvariance:
    """Points far from ordinary size run times an exact power of two; ordinary points run as given."""

    @pytest.mark.parametrize("k", [-960, -560, 530, 960])
    def test_same_bits_at_every_power_of_two(self, k):
        # squared differences leave the double range beyond about 1e+-154: at 2^530
        # the Ahlfors constant read 0.0 and the diameter inf, at 2^-560 three
        # estimators refused distinct points as coincident; diameter(2^k P) = 2^k diameter(P)
        assert _scale_invariant_estimates(k) == _scale_invariant_estimates(0)

    def test_tiny_polygon_diameter(self):
        # 5.6e-6 off before, where the squared sides fell below the normal range
        assert regular_ngon(12, 1e-160).diameter() == pytest.approx(2e-160, rel=1e-15, abs=0.0)

    def test_diameter_past_the_double_range_is_inf(self):
        assert Polyline([(1e308, 1e308), (-1e308, -1e308), (0.0, 1.0)]).diameter() == math.inf

    @pytest.mark.parametrize("far", [1e200, 1e300])
    def test_local_estimators_ignore_a_far_point(self, far):
        # the local fits scale by the points inside B(x, r) alone: a point outside
        # leaves every bit as it is, however far it lies
        near = np.array([(0.0, 0.0), (0.3, 0.0), (0.0, 0.7)])
        with_far = np.vstack([near, [(far, far)]])
        assert linear_approx_delta(with_far, near[0], 1.0) == linear_approx_delta(near, near[0], 1.0)
        assert thickness_constant(with_far, near[0], 1.0) == thickness_constant(near, near[0], 1.0)
        assert thickness_constant(near, near[0], 1.0) == pytest.approx(0.105, rel=1e-15)

    def test_local_estimators_at_a_tiny_radius(self):
        # the cross products of differences near 2^-570 underflow unless scaled: delta
        # read 0.0 and the thickness raised ZeroDivisionError
        tiny = 2.0 ** -570
        pts = np.array([(0.0, 0.0), (tiny, 0.0), (0.0, tiny), (1.0, 1.0)])
        unit = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert linear_approx_delta(pts, pts[0], 8 * tiny) == linear_approx_delta(unit, unit[0], 8.0)
        assert thickness_constant(pts, pts[0], 8 * tiny) == thickness_constant(unit, unit[0], 8.0) == 0.5 / 64

    def test_radius_far_beyond_the_local_points(self):
        # the slab width over r and the thickness lie far below the double range
        pts = koch_curve(2).points * 2.0 ** -1000
        assert linear_approx_delta(pts, pts[5], 1e300).delta == 0.0
        assert thickness_constant(pts, pts[5], 1e300) == 0.0


class TestPolylineCsv:
    def test_roundtrip(self, tmp_path):
        poly = koch_curve(2)
        path = tmp_path / "curve.csv"
        poly.to_csv(path)
        back = Polyline.from_csv(path, closed=True)
        assert np.allclose(back.points, poly.points)
        assert back.closed

    @pytest.mark.parametrize("curve, digest", [
        (lambda: koch_curve(3), "694fba8e1b36c2ef93ef8eeb0ea8213992de1a374763b7a249d09a787e96c515"),
        (lambda: regular_ngon(130), "4ed00ab35cd08532f0b5794f6275ceea5350e8d24fdbba7d45c37a574821f516"),
    ], ids=["koch3", "ngon130"])
    def test_written_bytes_are_pinned(self, tmp_path, curve, digest):
        # the x,y header, then each vertex as two 17-significant-digit fields in CRLF rows
        path = tmp_path / "curve.csv"
        curve().to_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_header_required(self):
        with pytest.raises(PolylineFormatError) as err:
            Polyline.from_csv_text("a,b\n1,2\n3,4\n")
        assert err.value.line == 1

    def test_bad_row_reports_line(self):
        with pytest.raises(PolylineFormatError) as err:
            Polyline.from_csv_text("x,y\n0,0\n1,oops\n")
        assert err.value.line == 3

    def test_wrong_field_count(self):
        with pytest.raises(PolylineFormatError) as err:
            Polyline.from_csv_text("x,y\n0,0,0\n")
        assert err.value.line == 2

    def test_empty(self):
        with pytest.raises(PolylineFormatError):
            Polyline.from_csv_text("")

    def test_too_few_vertices(self):
        with pytest.raises(PolylineFormatError):
            Polyline.from_csv_text("x,y\n0,0\n")

    def test_blank_lines_skipped(self):
        poly = Polyline.from_csv_text("x,y\n0,0\n\n1,0\n\n0,1\n")
        assert poly.points.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    def test_wrong_field_count_among_good_rows(self):
        with pytest.raises(PolylineFormatError) as err:
            Polyline.from_csv_text("x,y\n0,0\n1,1,1\n2,0\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("pts,closed", [([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], False),
                                            ([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], True)])
    def test_coincident_consecutive_vertices(self, pts, closed):
        with pytest.raises(DomainError, match="coincident"):
            Polyline(np.array(pts), closed=closed)

    def test_points_are_a_checked_read_only_copy(self):
        source = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        poly = Polyline(source)
        source[0, 0] = 5.0
        assert poly.points[0, 0] == 0.0 and not poly.points.flags.writeable
        assert poly.closed is True and tuple(poly) == (poly.points, True)
        # _make and _replace go through the same checks as the constructor
        with pytest.raises(DomainError, match="coincident"):
            poly._replace(points=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DomainError):
            Polyline._make((np.array([[0.0, math.inf], [1.0, 0.0]]), False))
        assert not poly._replace(closed=False).closed

    def test_open_polyline_has_no_closing_edge(self):
        # the 3-4-5 triangle: closed it has the edge back to the start, open it does not
        pts = [[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]
        closed, open_ = Polyline(pts), Polyline(pts, closed=False)
        assert (closed.n_edges, closed.edge_lengths().tolist(), closed.perimeter()) == (3, [3.0, 4.0, 5.0], 12.0)
        assert (open_.n_edges, open_.edge_lengths().tolist(), open_.perimeter()) == (2, [3.0, 4.0], 7.0)
