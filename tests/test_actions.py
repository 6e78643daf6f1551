"""Constructed actions: spheres, cylinders, balls, covers, intervals."""

import math

import numpy as np
import pytest

from lieactions.actions import (
    CoverElement,
    MultiBall,
    cover_compose,
    cover_eval,
    cover_identity,
    cylinder_transfer,
    cylinder_transfer_inverse,
    disk_action,
    interval_action,
    make_ball_action,
    radial_action,
    sphere_action,
    suspension_act,
    verify_action,
)
from lieactions.deformations import bump_group_deformation, group_contraction_ST
from lieactions.matrixgroups import generators, random_element, random_sl2

RNG = lambda s=0: np.random.default_rng(s)


def _all_effective(report):
    """Every generator moved some sampled point."""
    return all(w is not None for w in report.witnesses.values())


def unit_vec(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


# -- sphere -------------------------------------------------------------------


def test_sphere_identity():
    x = np.array([0.6, 0.8, 0.0])
    assert np.array_equal(sphere_action(np.eye(3), x), x)


def test_sphere_eigenvector_fixed():
    g = np.diag([2.0, 0.5])
    assert np.allclose(sphere_action(g, np.array([1.0, 0.0])), [1.0, 0.0], atol=0)


def test_sphere_composition_law():
    rng = RNG(1)
    res = 0.0
    for _ in range(100):
        g = random_element(rng, "ST", 3)
        h = random_element(rng, "ST", 3)
        x = unit_vec(rng, 3)
        lhs = sphere_action(g @ h, x)
        rhs = sphere_action(g, sphere_action(h, x))
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    assert res <= 1e-12


def test_sphere_rejects_collapse():
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        sphere_action(singular, np.array([0.0, 1.0]))


# -- suspension and cylinder -----------------------------------------------------


def test_suspension_levels():
    gd = group_contraction_ST(3)
    rng = RNG(2)
    g = random_element(rng, "ST", 3)
    x = unit_vec(rng, 3)
    # below 0: the untouched sphere action; above 1: frozen (trivial)
    y_neg, t_neg = suspension_act(gd, g, x, -1.0)
    assert t_neg == -1.0
    assert np.allclose(y_neg, sphere_action(g, x), atol=0)
    y_top, t_top = suspension_act(gd, g, x, 2.0)
    assert t_top == 2.0
    assert np.array_equal(y_top, x)


def test_suspension_composition_per_level():
    gd = group_contraction_ST(3)
    rng = RNG(3)
    res = 0.0
    for _ in range(200):
        g = random_element(rng, "ST", 3)
        h = random_element(rng, "ST", 3)
        x = unit_vec(rng, 3)
        t = rng.uniform(-0.5, 1.5)
        lhs, _ = suspension_act(gd, g @ h, x, t)
        inner, _ = suspension_act(gd, h, x, t)
        rhs, _ = suspension_act(gd, g, inner, t)
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    assert res <= 1e-9


def test_cylinder_transfer_examples():
    e1 = np.array([1.0, 0.0])
    assert np.array_equal(cylinder_transfer(e1, 0.0), e1)
    assert np.allclose(cylinder_transfer(e1, 1.0), [math.exp(-1.0), 0.0], atol=0)


def test_cylinder_round_trip():
    rng = RNG(4)
    worst = 0.0
    for _ in range(100):
        x = unit_vec(rng, 3)
        t = rng.uniform(-3, 3)
        y = cylinder_transfer(x, t)
        x2, t2 = cylinder_transfer_inverse(y)
        worst = max(worst, float(np.max(np.abs(x2 - x))), abs(t2 - t))
    assert worst <= 1e-12
    with pytest.raises(ValueError):
        cylinder_transfer_inverse(np.zeros(3))


def test_cylinder_equivariance():
    # transferring then acting equals acting then transferring, where the
    # composite is coded independently of radial_action
    gd = group_contraction_ST(3)
    rng = RNG(5)
    worst = 0.0
    for _ in range(100):
        g = random_element(rng, "ST", 3)
        x = unit_vec(rng, 3)
        t = rng.uniform(-1.5, 1.5)
        # act on the cylinder, then transfer
        xp, _ = suspension_act(gd, g, x, t)
        via_cylinder = cylinder_transfer(xp, t)
        # transfer, then act on euclidean space
        via_euclid = radial_action(gd, g, cylinder_transfer(x, t))
        worst = max(worst, float(np.max(np.abs(via_cylinder - via_euclid))))
    assert worst <= 1e-9


def test_radial_action_support_structure():
    gd = group_contraction_ST(3)
    shear = generators("ST", 3)[2][1]
    near = np.array([0.2, 0.1, -0.05])  # |y| < e^-1
    far = np.array([1.5, 0.4, 0.2])  # |y| > 1
    assert np.array_equal(radial_action(gd, shear, near), near)
    assert np.max(np.abs(radial_action(gd, shear, far) - far)) > 1e-3
    assert np.array_equal(radial_action(gd, shear, np.zeros(3)), np.zeros(3))


# -- ball actions ------------------------------------------------------------------


def ball_point_sampler(center, radius, n):
    center = np.asarray(center, dtype=float)

    def sample(rng):
        v = unit_vec(rng, n)
        return center + v * rng.uniform(0.05, 1.3) * radius

    return sample


def test_ball_action_identity_outside_annulus():
    ball = make_ball_action("ST", 3)
    rng = RNG(6)
    g = random_element(rng, "ST", 3)
    for r in (0.05, 0.299, 0.91, 1.5, 7.0):
        y = unit_vec(rng, 3) * r
        assert np.array_equal(ball.apply(g, y), y)


def test_ball_action_identity_element():
    ball = make_ball_action("ST", 3)
    rng = RNG(7)
    for _ in range(20):
        y = rng.normal(size=3)
        assert np.max(np.abs(ball.apply(np.eye(3), y) - y)) <= 1e-15


def test_ball_action_moved_points_stay_in_annulus():
    ball = make_ball_action("ST", 3)
    rng = RNG(8)
    g = generators("ST", 3)[0][1]
    for _ in range(300):
        y = unit_vec(rng, 3) * rng.uniform(0.05, 1.4)
        out = ball.apply(g, y)
        if np.max(np.abs(out - y)) > 0:
            r = np.linalg.norm(y)
            assert 0.3 < r < 0.9
            # radius is preserved
            assert abs(np.linalg.norm(out) - r) <= 1e-12


def test_ball_action_bijective_via_inverse():
    ball = make_ball_action("ST", 3)
    rng = RNG(9)
    for _ in range(50):
        g = random_element(rng, "ST", 3)
        ginv = np.linalg.inv(g)
        y = unit_vec(rng, 3) * rng.uniform(0.05, 1.2)
        back = ball.apply(ginv, ball.apply(g, y))
        assert np.max(np.abs(back - y)) <= 1e-9


def test_ball_action_verification_st_and_u():
    for group in ("ST", "U"):
        ball = make_ball_action(group, 3)
        report = verify_action(
            ball.apply,
            np.eye(3),
            lambda r, _g=group: random_element(r, _g, 3),
            ball_point_sampler(ball.center, ball.radius, 3),
            generators(group, 3),
            samples=200,
        )
        assert report.max_identity_residual <= 1e-9
        assert report.max_composition_residual <= 1e-6
        assert _all_effective(report), group


def test_ball_action_annulus_validation():
    with pytest.raises(ValueError):
        make_ball_action("ST", 3, r0=0.9, r1=0.3)
    with pytest.raises(ValueError):
        make_ball_action("ST", 3, r0=0.0, r1=0.5)


# -- multiball ------------------------------------------------------------------------


def make_three_balls(group="ST", n=3):
    return [
        make_ball_action(group, n, center=(0.0, 0.0, 0.0)),
        make_ball_action(group, n, center=(3.0, 0.0, 0.0)),
        make_ball_action(group, n, center=(0.0, 3.0, 0.0)),
    ]


def test_multiball_identity_and_disjoint_supports():
    balls = make_three_balls()
    mb = MultiBall(tuple(balls))
    rng = RNG(10)
    ident = tuple(np.eye(3) for _ in range(3))
    y = rng.normal(size=3)
    assert np.max(np.abs(mb.apply(ident, y) - y)) <= 1e-15
    # an element acting in ball 1 fixes all of ball 2
    g = generators("ST", 3)[0][1]
    elements = (g, np.eye(3), np.eye(3))
    pt_in_ball2 = np.array([3.0, 0.5, 0.0])
    assert np.array_equal(mb.apply(elements, pt_in_ball2), pt_in_ball2)


def test_multiball_action_law():
    balls = make_three_balls()
    mb = MultiBall(tuple(balls))
    centers = [np.asarray(b.center) for b in balls]

    def sample_el(rng):
        return tuple(random_element(rng, "ST", 3) for _ in range(3))

    def sample_pt(rng):
        j = int(rng.integers(0, 3))
        return centers[j] + unit_vec(rng, 3) * rng.uniform(0.05, 1.3)

    gens = []
    for j in range(3):
        for name, g in generators("ST", 3):
            el = [np.eye(3)] * 3
            el[j] = g
            gens.append((f"ball{j}.{name}", tuple(el)))
    report = verify_action(
        mb.apply, tuple(np.eye(3) for _ in range(3)), sample_el, sample_pt, gens, samples=200
    )
    assert report.max_composition_residual <= 1e-6
    assert _all_effective(report)


def test_multiball_rejects_overlap():
    with pytest.raises(ValueError):
        MultiBall((make_ball_action("ST", 3, center=(0.0, 0.0, 0.0)),
                   make_ball_action("ST", 3, center=(1.5, 0.0, 0.0))))


# -- verify_action edge cases ------------------------------------------------------------


def test_verify_sphere_st2_generators_effective():
    # both the diagonal and the shear generator move the direction (0, 1)
    report = verify_action(
        sphere_action,
        np.eye(2),
        lambda r: random_element(r, "ST", 2),
        lambda r: unit_vec(r, 2),
        generators("ST", 2),
        samples=100,
    )
    assert report.max_composition_residual <= 1e-12
    assert _all_effective(report)
    # the shear moves (0, 1); the diagonal fixes the axes but moves any
    # generic direction
    shear = dict(generators("ST", 2))["shear12"]
    moved = sphere_action(shear, np.array([0.0, 1.0]))
    assert np.max(np.abs(moved - np.array([0.0, 1.0]))) > 1e-6
    diag = dict(generators("ST", 2))["diag1"]
    generic = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert np.max(np.abs(sphere_action(diag, generic) - generic)) > 1e-6


def test_verify_trivial_action():
    report = verify_action(
        lambda g, y: np.asarray(y, dtype=float),
        np.eye(2),
        lambda r: random_element(r, "ST", 2),
        lambda r: r.normal(size=2),
        [("gen", np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]]))],
        samples=50,
    )
    assert report.max_identity_residual == 0.0
    assert report.max_composition_residual == 0.0
    assert report.witnesses["gen"] is None


def test_verify_detects_fault_injected_action():
    # suspension with a deliberately mismatched level: g acts at t, but
    # composition effectively sees different levels
    gd = bump_group_deformation("ST", 3)

    def faulty(g, y):
        r = float(np.linalg.norm(y))
        if r < 1e-9:
            return np.asarray(y, dtype=float).copy()
        # level depends on the matrix entry, breaking the per-level law
        t = 0.45 + 0.2 * math.tanh(abs(float(g[0, 1])))
        xp = sphere_action(gd.apply(t, g), y / r)
        return r * xp

    report = verify_action(
        faulty,
        np.eye(3),
        lambda r: random_element(r, "ST", 3),
        lambda r: unit_vec(r, 3) * r.uniform(0.4, 0.8),
        [],
        samples=100,
    )
    assert report.max_composition_residual > 1e-3


# -- lifted circle action -----------------------------------------------------------------


def test_cover_deck_translation_compose():
    i1 = CoverElement.of(np.eye(2), 1)
    i2 = cover_compose(i1, i1)
    assert i2.deck == 2
    assert abs(cover_eval(i2, 0.3) - (0.3 + 2 * math.pi)) <= 1e-12


def test_cover_composition_pointwise():
    rng = RNG(12)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng), int(rng.integers(-2, 3)))
        b = CoverElement.of(random_sl2(rng), int(rng.integers(-2, 3)))
        ab = cover_compose(a, b)
        for theta in rng.uniform(-6, 6, size=4):
            lhs = cover_eval(ab, float(theta))
            rhs = cover_eval(a, cover_eval(b, float(theta)))
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_cover_associativity():
    rng = RNG(13)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng))
        b = CoverElement.of(random_sl2(rng))
        c = CoverElement.of(random_sl2(rng))
        left = cover_compose(cover_compose(a, b), c)
        right = cover_compose(a, cover_compose(b, c))
        for theta in rng.uniform(-4, 4, size=3):
            worst = max(worst, abs(cover_eval(left, float(theta)) - cover_eval(right, float(theta))))
    assert worst <= 1e-9


def _linalg_det_accepts(a) -> bool:
    """The check CoverElement.of used to make: an LU determinant within 1e-9 of 1."""
    return abs(float(np.linalg.det(a)) - 1.0) <= 1e-9


def _of_accepts(a) -> bool:
    try:
        CoverElement.of(a)
    except ValueError:
        return False
    return True


def test_cover_determinant_check_matches_linalg_det():
    rng = RNG(16)
    matrices = []
    for _ in range(300):
        drawn = random_sl2(rng)
        a = CoverElement.of(drawn, int(rng.integers(-1, 2)))
        b = CoverElement.of(random_sl2(rng), int(rng.integers(-1, 2)))
        matrices += [drawn, cover_compose(a, b).as_array(), _array_inverse(a).as_array()]
    # the same matrices with the determinant moved inside, across and far past the tolerance
    scaled = [m * np.array([[1.0 + d], [1.0]]) for m in matrices[:150] for d in (5e-10, -5e-10, 2e-9, -2e-9, 1e-3)]
    for m in matrices + scaled:
        assert _of_accepts(m) == _linalg_det_accepts(m), m
    assert all(_of_accepts(m) for m in matrices)
    assert not all(_of_accepts(m) for m in scaled)
    with pytest.raises(ValueError, match="determinant 1"):
        CoverElement.of(np.array([[2.0, 0.0], [0.0, 1.0]]))


def test_cover_deck_equivariance():
    rng = RNG(14)
    worst = 0.0
    for _ in range(20):
        a = CoverElement.of(random_sl2(rng), int(rng.integers(-1, 2)))
        for theta in rng.uniform(-6, 6, size=100):
            worst = max(
                worst,
                abs(cover_eval(a, float(theta) + math.pi) - cover_eval(a, float(theta)) - math.pi),
            )
    assert worst <= 1e-9


# The lift, evaluation, composition and inverse as they were when they read the
# matrix through a numpy array on every call: the oracle of the tuple versions.
def _array_lift(a: np.ndarray, theta: float) -> float:
    m = math.floor(theta / math.pi)
    theta0 = theta - m * math.pi
    base = math.atan2(a[1, 0], a[0, 0]) % math.pi
    base = base - math.pi if base >= math.pi else base
    v1 = a[0, 0] * math.cos(theta0) + a[0, 1] * math.sin(theta0)
    v2 = a[1, 0] * math.cos(theta0) + a[1, 1] * math.sin(theta0)
    val = math.atan2(v2, v1) % math.pi
    val = val - math.pi if val >= math.pi else val
    inc = (val - base) % math.pi
    if inc >= math.pi:
        inc -= math.pi
    return base + inc + m * math.pi


def _array_eval(a: CoverElement, theta: float) -> float:
    return _array_lift(a.as_array(), theta) + a.deck * math.pi


def _array_compose(a: CoverElement, b: CoverElement) -> CoverElement:
    a_arr, b_arr = a.as_array(), b.as_array()
    ab = a_arr @ b_arr
    delta = round((_array_lift(a_arr, _array_lift(b_arr, 0.0)) - _array_lift(ab, 0.0)) / math.pi)
    return CoverElement.of(ab, a.deck + b.deck + int(delta))


def _array_inverse(a: CoverElement) -> CoverElement:
    arr = a.as_array()
    raw = CoverElement.of(np.array([[arr[1, 1], -arr[0, 1]], [-arr[1, 0], arr[0, 0]]]), -a.deck)
    shift = round(_array_eval(_array_compose(a, raw), 0.0) / math.pi)
    return CoverElement(raw.matrix, raw.deck - int(shift))


def _bits(element: CoverElement):
    return [x.hex() for row in element.matrix for x in row], element.deck


def test_cover_operations_match_the_array_versions_bit_for_bit():
    rng = RNG(17)
    for _ in range(300):
        a = CoverElement.of(random_sl2(rng), int(rng.integers(-3, 4)))
        b = CoverElement.of(random_sl2(rng), int(rng.integers(-3, 4)))
        # negative angles, angles past several deck shifts, and the multiples of pi
        for theta in [*rng.uniform(-12.0, 12.0, size=6), -math.pi, 0.0, math.pi, -3 * math.pi]:
            assert cover_eval(a, float(theta)).hex() == _array_eval(a, float(theta)).hex()
        assert _bits(cover_compose(a, b)) == _bits(_array_compose(a, b))


def test_cover_base_normalization():
    rng = RNG(15)
    for _ in range(50):
        a = CoverElement.of(random_sl2(rng))
        base = cover_eval(a, 0.0)
        assert 0.0 <= base < math.pi


# -- interval and disk ----------------------------------------------------------------------


def test_interval_endpoints_fixed_exactly():
    rng = RNG(16)
    for _ in range(20):
        a = CoverElement.of(random_sl2(rng), int(rng.integers(-2, 3)))
        assert interval_action(a, 0.0) == 0.0
        assert interval_action(a, 1.0) == 1.0


def test_interval_identity_element():
    ident = cover_identity()
    for s in (0.0, 0.2, 0.5, 0.9, 1.0):
        assert abs(interval_action(ident, s) - s) <= 1e-12


def test_interval_composition_and_nondegeneracy():
    rng = RNG(17)
    worst = 0.0
    for _ in range(200):
        a = CoverElement.of(random_sl2(rng))
        b = CoverElement.of(random_sl2(rng))
        ab = cover_compose(a, b)
        s = rng.uniform(0.01, 0.99)
        lhs = interval_action(ab, s)
        rhs = interval_action(a, interval_action(b, s))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-6
    # nondegeneracy witness: the rotation generator moves the midpoint
    rot = CoverElement.of(np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]]))
    assert abs(interval_action(rot, 0.5) - 0.5) > 1e-6


def test_interval_domain_validation():
    a = cover_identity()
    with pytest.raises(ValueError):
        interval_action(a, -0.1)
    with pytest.raises(ValueError):
        interval_action(a, 1.1)


def test_disk_action_boundary_and_center_fixed():
    rng = RNG(18)
    a = CoverElement.of(random_sl2(rng))
    boundary = np.array([0.6, 0.8])
    assert np.array_equal(disk_action(a, boundary), boundary)
    assert np.array_equal(disk_action(a, np.zeros(2)), np.zeros(2))


def test_disk_action_composition():
    rng = RNG(19)
    worst = 0.0
    for _ in range(100):
        a = CoverElement.of(random_sl2(rng))
        b = CoverElement.of(random_sl2(rng))
        ab = cover_compose(a, b)
        y = unit_vec(rng, 2) * rng.uniform(0.05, 0.95)
        lhs = disk_action(ab, y)
        rhs = disk_action(a, disk_action(b, y))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-6


def test_disk_rejects_outside_points():
    a = cover_identity()
    with pytest.raises(ValueError):
        disk_action(a, np.array([1.2, 0.0]))
