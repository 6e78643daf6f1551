"""Polynomial fields: exact brackets, families, projective actions, flows."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions.catalog import catalog
from lieactions.constants import MAX_FLOW_STEPS
from lieactions.linalg import RatMatrix
from lieactions.polynomials import Poly
from lieactions.vectorfields import (
    AnnihilationError,
    FlowBlowUpError,
    PolyVectorField,
    VFAction,
    action_homomorphism_check,
    annihilation_residual,
    commuting_family,
    flow,
    flow_checks,
    flow_steps,
    hamiltonian_field,
    make_projective_action,
    orbit_info,
    projective_infinitesimal,
    projective_kernel,
    vf_bracket,
)


def _variable(nvars, i):
    """The polynomial x_(i+1) in nvars variables."""
    return Poly.make(nvars, {tuple(int(k == i) for k in range(nvars)): 1})


def circle() -> Poly:
    return Poly.make(2, {(2, 0): 1, (0, 2): 1})


def random_poly(rng, nvars, deg=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exp = tuple(rng.randint(0, deg) for _ in range(nvars))
        if sum(exp) > deg:
            continue
        terms[exp] = Fraction(rng.randint(-3, 3))
    return Poly.make(nvars, terms)


def random_field(rng, nvars, deg=2):
    return PolyVectorField(tuple(random_poly(rng, nvars, deg) for _ in range(nvars)))


# -- polynomial ring sanity -------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_poly_ring_laws(a, b, c):
    x = _variable(2, 0)
    y = _variable(2, 1)
    p = x.scale(a) + y.scale(b) + Poly.constant(2, c)
    q = x * y + x.scale(b)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p


def test_poly_diff_product_rule():
    rng = random.Random(8)
    for _ in range(10):
        p = random_poly(rng, 2)
        q = random_poly(rng, 2)
        for i in range(2):
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def test_poly_substitute():
    u = Poly.make(1, {(2,): 1})  # s^2
    f = circle()
    assert u.substitute(f) == f * f


# -- brackets -----------------------------------------------------------------


def test_bracket_with_itself_zero():
    rng = random.Random(2)
    for _ in range(10):
        v = random_field(rng, 2)
        assert vf_bracket(v, v).is_zero()


def test_bracket_constant_and_linear():
    d1 = PolyVectorField((Poly.constant(1, 1),))
    xd1 = PolyVectorField((_variable(1, 0),))
    assert vf_bracket(d1, xd1) == d1


def test_bracket_jacobi_exact_on_random_quadratics():
    rng = random.Random(5)
    for _ in range(8):
        a = random_field(rng, 2)
        b = random_field(rng, 2)
        c = random_field(rng, 2)
        total = (
            vf_bracket(vf_bracket(a, b), c)
            + vf_bracket(vf_bracket(b, c), a)
            + vf_bracket(vf_bracket(c, a), b)
        )
        assert total.is_zero()


def test_bracket_bilinear_antisymmetric():
    rng = random.Random(6)
    a = random_field(rng, 3)
    b = random_field(rng, 3)
    c = random_field(rng, 3)
    assert vf_bracket(a, b) == vf_bracket(b, a).scale(-1)
    assert vf_bracket(a + b, c) == vf_bracket(a, c) + vf_bracket(b, c)


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        vf_bracket(random_field(random.Random(0), 2), random_field(random.Random(0), 3))


# -- hamiltonian and annihilation -------------------------------------------------


def test_hamiltonian_examples():
    f1 = _variable(2, 0)
    assert hamiltonian_field(f1) == PolyVectorField((Poly.zero(2), Poly.constant(2, -1)))
    y = hamiltonian_field(circle())
    assert y == PolyVectorField(
        (Poly.make(2, {(0, 1): 2}), Poly.make(2, {(1, 0): -2}))
    )


def test_hamiltonian_annihilates_any_f():
    rng = random.Random(9)
    for _ in range(20):
        f = random_poly(rng, 2, deg=3)
        assert annihilation_residual(f, hamiltonian_field(f)).is_zero()


def test_annihilation_counterexample():
    f = _variable(2, 0)
    v = PolyVectorField((Poly.constant(2, 1), Poly.zero(2)))
    assert not annihilation_residual(f, v).is_zero()


def test_annihilation_stable_under_scaling():
    rng = random.Random(10)
    for _ in range(10):
        f = random_poly(rng, 2, deg=3)
        u = random_poly(rng, 2, deg=2)
        scaled = hamiltonian_field(f).scale_by_poly(u)
        assert annihilation_residual(f, scaled).is_zero()


def test_hamiltonian_requires_two_vars():
    with pytest.raises(ValueError):
        hamiltonian_field(_variable(3, 0))


# -- commuting families --------------------------------------------------------------


def test_commuting_family_certificates():
    f = circle()
    x_field = hamiltonian_field(f)
    us = [Poly.make(1, {(k,): 1}) for k in range(4)]
    fields, cert = commuting_family(f, x_field, us)
    assert cert.pairwise_brackets_zero and cert.pairs_checked == 6
    assert cert.independent
    assert fields[0] == x_field  # u = 1
    assert fields[1] == x_field.scale_by_poly(f)  # u = s


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_commuting_family_brackets_expand_to_zero(seed):
    # the bracket loop the certificate replaces, on random annihilating fields:
    # w (f_j e_i - f_i e_j) for random f and w in two or three variables
    rng = random.Random(seed)
    nvars = rng.choice((2, 3))
    f = random_poly(rng, nvars, deg=3)
    i, j = rng.sample(range(nvars), 2)
    comps = [Poly.zero(nvars)] * nvars
    comps[i], comps[j] = f.diff(j), -f.diff(i)
    x_field = PolyVectorField(tuple(comps)).scale_by_poly(random_poly(rng, nvars, deg=2))
    assert annihilation_residual(f, x_field).is_zero()
    profiles = [random_poly(rng, 1, deg=3) for _ in range(rng.randint(0, 4))]
    fields, cert = commuting_family(f, x_field, profiles)
    k = len(profiles)
    assert cert.pairwise_brackets_zero and cert.pairs_checked == k * (k - 1) // 2
    for a in range(k):
        for b in range(a + 1, k):
            assert vf_bracket(fields[a], fields[b]).is_zero()


def test_commuting_family_dependent_profiles():
    f = circle()
    _, cert = commuting_family(
        f, hamiltonian_field(f), [Poly.constant(1, 1), Poly.constant(1, 1)]
    )
    assert not cert.independent


def test_commuting_family_rejects_non_annihilating_field():
    f = circle()
    bad = PolyVectorField((Poly.constant(2, 1), Poly.zero(2)))
    with pytest.raises(AnnihilationError) as err:
        commuting_family(f, bad, [Poly.constant(1, 1)])
    assert not err.value.residual.is_zero()


def test_boundary_tangency_on_half_plane():
    # f constant on the boundary line x1 = 0: the hamiltonian field is
    # tangent there (first component vanishes where df/dx2 does)
    f = Poly.make(2, {(1, 0): 1, (2, 0): 1})  # x1 + x1^2, constant on x1 = 0
    y = hamiltonian_field(f)
    assert y.components[0].is_zero()


# -- projective fields --------------------------------------------------------------


def test_projective_identity_matrix_gives_zero_field():
    x = projective_infinitesimal(RatMatrix.identity(3))
    assert x.is_zero()


def test_projective_riccati():
    a = RatMatrix([[2, 3], [5, -2]])
    x = projective_infinitesimal(a)
    # b + 2a x - c x^2 with a=2, b=3, c=5
    assert x == PolyVectorField(
        (Poly.make(1, {(0,): 3, (1,): 4, (2,): -5}),)
    )


def test_projective_t12_in_sl3():
    t12 = RatMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    x = projective_infinitesimal(t12)
    assert x == PolyVectorField((Poly.make(2, {(0, 1): 1}), Poly.zero(2)))


def test_projective_linear_in_matrix():
    rng = random.Random(12)
    for _ in range(10):
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        xa = projective_infinitesimal(RatMatrix(a))
        xb = projective_infinitesimal(RatMatrix(b))
        xab = projective_infinitesimal(RatMatrix([[x + y for x, y in zip(r, q)] for r, q in zip(a, b)]))
        assert xab == xa + xb


def test_projective_kernel_is_scalars():
    for n in (1, 2, 3):
        ker = projective_kernel(n)
        assert ker.dim == 1
        ident = [Fraction(int(i == j)) for i in range(n + 1) for j in range(n + 1)]
        assert ker.contains(ident)


# -- homomorphism checks ---------------------------------------------------------------


def test_homomorphism_abelian_either_sign():
    g = catalog("abelian", 2)
    f = circle()
    fields, _ = commuting_family(f, hamiltonian_field(f), [Poly.constant(1, 1), Poly.make(1, {(1,): 1})])
    action = VFAction(g, tuple(fields))
    check = action_homomorphism_check(action)
    assert check.exact  # both sides vanish


def test_homomorphism_sl2_exact_single_sign():
    action = make_projective_action(1)
    check = action_homomorphism_check(action)
    assert check.exact and check.sign in (1, -1)
    assert action.sign == check.sign


def test_homomorphism_fault_injection():
    action = make_projective_action(1)
    images = list(action.images)
    images[1] = images[1].scale(-1)
    broken = VFAction(action.algebra, tuple(images))
    check = action_homomorphism_check(broken)
    assert not check.exact
    assert len(check.violations) > 0


def test_homomorphism_check_brackets_each_pair_once(monkeypatch):
    from lieactions import vectorfields

    calls = []
    original = vectorfields.vf_bracket

    def counting(v, w):
        calls.append(1)
        return original(v, w)

    monkeypatch.setattr(vectorfields, "vf_bracket", counting)
    action = make_projective_action(2)  # sl(3): 28 basis pairs, sign -1
    assert action.sign == -1
    assert len(calls) == 28


def test_homomorphism_violations_of_the_sign_with_fewer():
    action = make_projective_action(1)
    images = list(action.images)
    images[1] = images[1].scale(-1)
    check = action_homomorphism_check(VFAction(action.algebra, tuple(images)))
    g = action.algebra
    # the violations of each sign, counted the way the check defined them before
    expected = {}
    for sign in (1, -1):
        expected[sign] = tuple(
            (i, j)
            for i in range(g.dim)
            for j in range(i + 1, g.dim)
            if not (
                VFAction(g, tuple(images)).image_of(g.bracket(g.basis_vector(i), g.basis_vector(j)))
                - vf_bracket(images[i], images[j]).scale(sign)
            ).is_zero()
        )
    fewer = min((1, -1), key=lambda s: len(expected[s]))
    assert check.sign is None and not check.exact
    assert check.violations == expected[fewer]


def test_homomorphism_consistent_across_ranks():
    for n in (1, 2, 3):
        action = make_projective_action(n)
        check = action_homomorphism_check(action)
        assert check.exact
        assert check.sign == -1  # measured, stable across ranks


# -- flows --------------------------------------------------------------------------------


def test_flow_of_zero_field_constant():
    v = PolyVectorField((Poly.zero(2), Poly.zero(2)))
    traj = np.asarray(flow(v, [1.0, -2.0], 1.0, 0.01))
    assert np.all(traj == traj[0])


def test_flow_constant_field_exact_endpoint():
    v = PolyVectorField((Poly.constant(1, 1),))
    traj = flow(v, [0.0], 1.0, 1.0 / 1024.0)
    assert traj[-1][0] == 1.0


def test_flow_conserves_level_sets():
    f = circle()
    y = hamiltonian_field(f)
    traj = flow(y, [1.0, 0.0], math.pi, 1e-3)
    values = [f.eval_float(list(row)) for row in traj]
    assert max(abs(v - 1.0) for v in values) <= 1e-8


def test_flow_blowup_reported_with_time():
    v = PolyVectorField((Poly.make(1, {(2,): 1}),))  # x' = x^2 from x = 3
    with pytest.raises(FlowBlowUpError) as err:
        flow(v, [3.0], 2.0, 1e-3)
    assert 0.0 < err.value.time <= 2.0


def test_trajectory_reads_back_the_rows_of_the_loop():
    v = PolyVectorField((Poly.make(2, {(0, 1): 2}), Poly.make(2, {(1, 0): -2})))
    traj = flow(v, [1.0, 0.5], -0.3, 0.1)
    want = [tuple(row) for row in _reference_flow(v, [1.0, 0.5], -0.3, 0.1).tolist()]
    assert len(traj) == 4 and list(traj) == want
    assert [traj[i] for i in range(-4, 4)] == want * 2
    for i in (4, -5):
        with pytest.raises(IndexError):
            traj[i]
    assert list(flow(PolyVectorField(()), [], 0.3, 0.1)) == [()] * 4


def test_flow_holds_8_bytes_a_coordinate():
    # one flat array of doubles, not a list of lists of float objects
    v = PolyVectorField((Poly.make(2, {(0, 1): 2}), Poly.make(2, {(1, 0): -2})))
    tracemalloc.start()
    try:
        traj = flow(v, [1.0, 0.0], 20.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 20001
    assert peak <= 2 * 8 * 2 * len(traj) + 65536, peak


# The former numpy RK4 loop, kept as the oracle of the compiled one: every
# component evaluated term by term on numpy floats, overflow giving inf.


def _reference_eval(poly: Poly, point) -> float:
    total = 0.0
    for e, c in poly.terms:
        term = float(c)
        for v, k in zip(point, e):
            if k:
                term *= v ** k
        total += term
    return total


def _reference_flow(v: PolyVectorField, p, duration: float, h: float) -> np.ndarray:
    def field(x):
        return np.array([_reference_eval(c, x) for c in v.components])

    steps = max(1, math.ceil(abs(duration) / h)) if duration else 0
    sign = 1.0 if duration >= 0 else -1.0
    x = np.array([float(c) for c in p])
    traj = np.zeros((steps + 1, v.nvars))
    traj[0] = x
    step = sign * h
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            k1 = field(x)
            k2 = field(x + 0.5 * step * k1)
            k3 = field(x + 0.5 * step * k2)
            k4 = field(x + step * k3)
            x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise FlowBlowUpError((i + 1) * step)
            traj[i + 1] = x
    return traj


def _outcome(run):
    """The trajectory, or the time of the blow-up."""
    try:
        return run()
    except FlowBlowUpError as exc:
        return exc.time


def _assert_same_flow(v, p, duration, h):
    got = _outcome(lambda: np.asarray(flow(v, p, duration, h)))
    want = _outcome(lambda: _reference_flow(v, p, duration, h))
    if isinstance(want, float):
        assert got == want  # the same blow-up time
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


@st.composite
def cubic_fields(draw):
    """A field of up to 3 variables whose components have degree <= 3."""
    nvars = draw(st.integers(1, 3))
    exponent = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).filter(lambda e: sum(e) <= 3)
    coefficient = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    comps = [
        Poly.make(nvars, dict(draw(st.lists(st.tuples(exponent.map(tuple), coefficient), max_size=4))))
        for _ in range(nvars)
    ]
    return PolyVectorField(tuple(comps))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cubic_fields(),
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    st.floats(-1.5, 1.5),
    st.sampled_from([0.01, 0.025, 1.0 / 64]),
)
def test_compiled_flow_matches_numpy_loop(v, point, duration, h):
    _assert_same_flow(v, point[: v.nvars], duration, h)


@pytest.mark.parametrize(
    "field,point,duration",
    [
        (PolyVectorField((Poly.make(1, {(2,): 1}),)), [1.0], 2.0),  # x' = x^2: non-finite after the pole
        (PolyVectorField((Poly.make(1, {(3,): 1}),)), [30.0], 1.0),  # x' = x^3: a power overflows first
        (PolyVectorField((Poly.make(1, {(3,): 1}),)), [-30.0], -1.0),  # backwards from below
        (PolyVectorField((Poly.make(2, {(0, 2): 1}), Poly.make(2, {(1, 0): -1}))), [0.5, 3.0], 3.0),
    ],
    ids=["square-pole", "cube-overflow", "cube-backwards", "planar"],
)
def test_compiled_flow_blow_up_matches_numpy_loop(field, point, duration):
    assert isinstance(_outcome(lambda: _reference_flow(field, point, duration, 0.01)), float)
    _assert_same_flow(field, point, duration, 0.01)


def test_flow_step_count_is_bounded():
    assert flow_steps(0.0, 0.1) == 0
    assert flow_steps(-0.05, 0.1) == 1
    assert flow_steps(float(MAX_FLOW_STEPS), 1.0) == MAX_FLOW_STEPS
    for duration, h in [(MAX_FLOW_STEPS + 1.0, 1.0), (1e308, 1e-3), (1.0, 1e-320), (float("nan"), 1.0)]:
        with pytest.raises(ValueError, match="steps"):
            flow_steps(duration, h)
    with pytest.raises(ValueError, match="steps"):
        flow(PolyVectorField((Poly.zero(1),)), [0.0], 1e20, 1e-3)
    with pytest.raises(ValueError, match="positive"):
        flow_steps(1.0, 0.0)


def test_flow_checks_same_field():
    f = circle()
    y = hamiltonian_field(f)
    report = flow_checks(y, y, [1.0, 0.0], 0.4, 0.4, 1e-3, level_function=f)
    assert report.commutation_residual <= 1e-10
    assert report.level_residual <= 1e-8


def test_flow_checks_commuting_family():
    f = circle()
    fields, cert = commuting_family(
        f, hamiltonian_field(f), [Poly.make(1, {(k,): 1}) for k in range(4)]
    )
    assert cert.valid
    report = flow_checks(fields[0], fields[1], [1.0, 0.0], 0.3, 0.3, 1e-3, level_function=f)
    assert report.commutation_residual <= 1e-5
    assert report.level_residual <= 1e-8


def test_flow_checks_detect_noncommuting():
    # hand-computable: flows of d1 and x1 d2 disagree by exactly s*t
    v = PolyVectorField((Poly.constant(2, 1), Poly.zero(2)))
    w = PolyVectorField((Poly.zero(2), _variable(2, 0)))
    report = flow_checks(v, w, [0.0, 0.0], 1.0, 1.0, 1e-3)
    assert abs(report.commutation_residual - 1.0) <= 1e-9


def test_flow_checks_keep_a_nan_level_residual():
    # 1e300 x^2 - 1e300 y^2 is inf - inf = NaN at (1e5, 1e5); the builtin max
    # would drop every NaN after the first value and report 0.0
    zero = PolyVectorField((Poly.zero(2), Poly.zero(2)))
    f = Poly.make(2, {(2, 0): 10**300, (0, 2): -(10**300)})
    report = flow_checks(zero, zero, [1e5, 1e5], 0.01, 0.01, 1e-3, level_function=f)
    assert report.commutation_residual == 0.0
    assert math.isnan(report.level_residual)


# -- orbit diagnostics ----------------------------------------------------------------------


def test_orbit_zero_action_fixed():
    g = catalog("abelian", 2)
    zero = PolyVectorField((Poly.zero(1),))
    action = VFAction(g, (zero, zero))
    assert orbit_info(action, [0.7])["dimension"] == 0


def test_orbit_riccati_transitive_on_chart():
    action = make_projective_action(1)
    rng = np.random.default_rng(0)
    for x in rng.uniform(-5, 5, size=20):
        assert orbit_info(action, [float(x)])["dimension"] == 1


def test_orbit_sl3_open_dense():
    action = make_projective_action(2)
    rng = np.random.default_rng(1)
    dims = [orbit_info(action, p)["dimension"] for p in rng.normal(size=(100, 2))]
    assert all(d == 2 for d in dims)


def test_orbit_info_flags():
    action = make_projective_action(1)
    info = orbit_info(action, [0.5])
    assert info["dimension"] == 1
    assert isinstance(info["near_degenerate"], bool)
