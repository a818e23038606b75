"""Quasicircle generators and geometric-constant estimators."""

import math
import tracemalloc

import numpy as np
import pytest

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

    def test_peak_memory_is_one_arc_table(self):
        # n = 768: the arc table is 4.7 MB; pairwise (2n, 2n, 2) tensors would take 90 MB
        curve = koch_curve(4)
        tracemalloc.start()
        try:
            ahlfors_constant(curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


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

    def test_guards(self):
        with pytest.raises(DomainError):
            triangle_condition_constant(koch_curve(1))
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
        with pytest.raises(DomainError):
            linear_approx_delta(pts, (0.3, 0.0), 1.0)  # base not in the set
        with pytest.raises(DomainError):
            linear_approx_delta(pts, (0.0, 0.0), -1.0)


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
        with pytest.raises(DomainError):
            box_dimension(seg, [0.1])
        with pytest.raises(DomainError):
            box_dimension(seg, [0.1, 0.05])  # spans less than a decade
        with pytest.raises(DomainError):
            box_dimension(seg, [0.1, -0.001])


class TestAbsRatio:
    def test_collinear_quadruple(self):
        for lam in (0.1, 0.5, 0.9):
            value = abs_ratio((-1.0, 0.0), (0.0, 0.0), (lam, 0.0), (1.0, 0.0))
            assert value == pytest.approx((1.0 + lam) / (1.0 - lam), rel=1e-13)

    def test_chordal_to_unit_point(self):
        assert chordal_dist((0.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert chordal_dist((1.0, 0.0), INFINITY) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert chordal_dist(INFINITY, INFINITY) == 0.0

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

    def test_domain(self):
        with pytest.raises(DomainError):
            rho_disk((1.0, 0.0), (0.0, 0.0))


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

    def test_guards(self):
        ngon = regular_ngon(64)
        with pytest.raises(DomainError):
            boundary_metric_estimate(ngon, (2.0, 0.0), (0.0, 0.0), "AbsoluteRatio")
        with pytest.raises(DomainError):
            boundary_metric_estimate(ngon, (0.0, 0.0), (0.5, 0.0), "Poincare")
        with pytest.raises(DomainError):
            boundary_metric_estimate(spiral_polyline(), (0.0, 0.0), (0.5, 0.0), "Apollonian")


class TestPolylineCsv:
    def test_roundtrip(self, tmp_path):
        poly = koch_curve(2)
        path = tmp_path / "curve.csv"
        poly.to_csv(path)
        back = Polyline.from_csv(path, closed=True)
        assert np.allclose(back.points, poly.points)
        assert back.closed

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
