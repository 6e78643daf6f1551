"""Polynomial fields: exact brackets, families, projective actions, flows."""

import json
import math
import random
import tracemalloc
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieactions import pcg64, vectorfields
from lieactions.catalog import catalog
from lieactions.constants import MAX_FLOW_STEPS
from lieactions.polynomials import Poly, compile_float
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
from clirunner import invoke
from pair_rows import basis_vector, exact_bracket, pairs


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


# Field arithmetic that only the tests need: sums, differences and the zero test.


def field_sum(*fields: PolyVectorField) -> PolyVectorField:
    return PolyVectorField(tuple(sum(cs[1:], cs[0]) for cs in zip(*(v.components for v in fields))))


def field_difference(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    return field_sum(v, w.scale(-1))


def field_is_zero(v: PolyVectorField) -> bool:
    return all(c.is_zero() for c in v.components)


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
        assert field_is_zero(vf_bracket(v, v))


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
        total = field_sum(vf_bracket(vf_bracket(a, b), c), vf_bracket(vf_bracket(b, c), a),
                          vf_bracket(vf_bracket(c, a), b))
        assert field_is_zero(total)


def test_bracket_bilinear_antisymmetric():
    rng = random.Random(6)
    a = random_field(rng, 3)
    b = random_field(rng, 3)
    c = random_field(rng, 3)
    assert vf_bracket(a, b) == vf_bracket(b, a).scale(-1)
    assert vf_bracket(field_sum(a, b), c) == field_sum(vf_bracket(a, c), vf_bracket(b, c))


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        vf_bracket(random_field(random.Random(0), 2), random_field(random.Random(0), 3))


# The bracket and the image of a coordinate vector as they were when built from
# Poly operations, each intermediate polynomial made and sorted: the oracles of
# the one-pass versions.


def _poly_op_bracket(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    n = v.nvars
    comps = []
    for k in range(n):
        total = Poly.zero(n)
        wk = w.components[k]
        vk = v.components[k]
        for i in range(n):
            total = total + v.components[i] * wk.diff(i) + -(w.components[i] * vk.diff(i))
        comps.append(total)
    return PolyVectorField(tuple(comps))


def _poly_op_image(action: VFAction, x) -> PolyVectorField:
    out = PolyVectorField(tuple(Poly.zero(action.images[0].nvars) for _ in range(action.images[0].nvars)))
    for c, field in zip(x, action.images):
        c = Fraction(c)
        if c:
            out = field_sum(out, field.scale(c))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_one_pass_bracket_matches_the_poly_operations(data):
    v = data.draw(cubic_fields())
    w = data.draw(cubic_fields(v.nvars))
    got = vf_bracket(v, w)
    assert got == _poly_op_bracket(v, w)
    assert all(c and type(c) is Fraction for comp in got.components for _, c in comp.terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_one_pass_image_matches_the_poly_operations(data):
    nvars = data.draw(st.integers(1, 3))
    images = tuple(data.draw(cubic_fields(nvars)) for _ in range(3))
    action = VFAction(catalog("abelian", 3), images)
    x = data.draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4) | st.integers(-2, 2),
                           min_size=3, max_size=3))
    assert action.image_of(x) == _poly_op_image(action, x)


def test_projective_homomorphism_checks_match_the_poly_operations():
    for n in (1, 2, 3):
        action = make_projective_action(n)
        g = action.algebra
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                bracket = exact_bracket(g, basis_vector(g, i), basis_vector(g, j))
                assert action.image_of(bracket) == _poly_op_image(action, bracket)
                assert vf_bracket(action.images[i], action.images[j]) == _poly_op_bracket(
                    action.images[i], action.images[j])


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
            assert field_is_zero(vf_bracket(fields[a], fields[b]))


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
    x = projective_infinitesimal(pairs([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert field_is_zero(x)


def test_projective_rejects_a_matrix_not_square_or_below_2x2():
    with pytest.raises(ValueError, match="square"):
        projective_infinitesimal(pairs([[0, 0, 1], [0, 0, 0]]))  # two rows, an entry in column 2
    with pytest.raises(ValueError, match="2x2"):
        projective_infinitesimal(pairs([[1]]))


def test_projective_riccati():
    a = pairs([[2, 3], [5, -2]])
    x = projective_infinitesimal(a)
    # b + 2a x - c x^2 with a=2, b=3, c=5
    assert x == PolyVectorField(
        (Poly.make(1, {(0,): 3, (1,): 4, (2,): -5}),)
    )


def test_projective_t12_in_sl3():
    t12 = pairs([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    x = projective_infinitesimal(t12)
    assert x == PolyVectorField((Poly.make(2, {(0, 1): 1}), Poly.zero(2)))


def test_projective_linear_in_matrix():
    rng = random.Random(12)
    for _ in range(10):
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        xa = projective_infinitesimal(pairs(a))
        xb = projective_infinitesimal(pairs(b))
        xab = projective_infinitesimal(pairs([[x + y for x, y in zip(r, q)] for r, q in zip(a, b)]))
        assert xab == field_sum(xa, xb)


def test_projective_images_include_the_constant_unit_fields():
    # the images of the E(i, n+1) are the translations d/dx_i: at every point the
    # fields span R^n with smallest singular value at least 1, so every orbit is open
    for n in range(1, 6):
        images = make_projective_action(n).images
        units = [PolyVectorField(tuple(Poly.constant(n, int(i == j)) for j in range(n))) for i in range(n)]
        assert len(images) == n * (n + 2)
        assert [unit in images for unit in units] == [True] * n


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
    from lieactions import pcg64, vectorfields

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
            if not field_is_zero(field_difference(
                VFAction(g, tuple(images)).image_of(exact_bracket(g, basis_vector(g, i), basis_vector(g, j))),
                vf_bracket(images[i], images[j]).scale(sign)))
        )
    fewer = min((1, -1), key=lambda s: len(expected[s]))
    assert check.sign is None and not check.exact
    assert check.violations == expected[fewer]


def _dense_homomorphism_check(action):
    """The check as it read [e_i, e_j] before: a dense bracket of basis vectors."""
    g = action.algebra
    violations = {1: [], -1: []}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = action.image_of(exact_bracket(g, basis_vector(g, i), basis_vector(g, j)))
            rhs = vf_bracket(action.images[i], action.images[j])
            for sign in (1, -1):
                if lhs != rhs.scale(sign):
                    violations[sign].append((i, j))
    fewer = min(violations, key=lambda s: len(violations[s]))
    return (fewer, True, ()) if not violations[fewer] else (None, False, tuple(violations[fewer]))


@pytest.mark.parametrize("key,nvars", [("heisenberg", 2), ("st", 2), ("sl", 1), ("abelian", 3), ("N", 1)])
def test_homomorphism_check_from_the_table_matches_dense_brackets(key, nvars):
    # random images on algebras with absent pairs (zero brackets), and the
    # projective action with one image scaled or swapped
    g = catalog(f"{key}3") if key != "N" else catalog("N4")
    rng = random.Random(key)
    for _ in range(4):
        images = tuple(random_field(rng, nvars, 1) for _ in range(g.dim))
        action = VFAction(g, images)
        assert tuple(action_homomorphism_check(action)) == _dense_homomorphism_check(action)
    projective = make_projective_action(2)
    for images in (projective.images, projective.images[:1] + (projective.images[1].scale(2),) + projective.images[2:],
                   projective.images[1::-1] + projective.images[2:]):
        action = VFAction(projective.algebra, images)
        assert tuple(action_homomorphism_check(action)) == _dense_homomorphism_check(action)


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
    value = compile_float((f,))
    values = [value(*row)[0] for row in traj]
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
def cubic_fields(draw, nvars=None):
    """A field of 1 to 3 variables (or `nvars`) whose components have degree <= 3."""
    nvars = nvars or draw(st.integers(1, 3))
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


# The interpreted float evaluator and the RK4 loop over it, as they were before
# each field got its compiled evaluator: the compiled evaluator must give its
# values, and `flow` its trajectories and blow-up times, bit for bit.


def float_terms(poly: Poly) -> tuple:
    """(float coefficient, ((variable, exponent), ...) for the nonzero exponents), per term."""
    return tuple((float(c), tuple((v, k) for v, k in enumerate(e) if k)) for e, c in poly.terms)


def eval_compiled(compiled, point) -> list[float]:
    """The values at a point of floats of the polynomials whose `float_terms`
    are `compiled`: each term its coefficient times the powers of the
    variables in index order, the terms summed in order from 0.0."""
    out = []
    for terms in compiled:
        total = 0.0
        for term, powers in terms:
            for v, k in powers:
                term *= point[v] ** k
            total += term
        out.append(total)
    return out


def _eval_compiled_flow(v: PolyVectorField, p, duration: float, h: float) -> array:
    steps = flow_steps(duration, h)
    step = h if duration >= 0 else -h
    half, sixth = 0.5 * step, step / 6.0
    field = [float_terms(c) for c in v.components]
    x = [float(c) for c in p]
    data = array("d", x)
    for i in range(steps):
        try:
            k1 = eval_compiled(field, x)
            k2 = eval_compiled(field, [a + half * b for a, b in zip(x, k1)])
            k3 = eval_compiled(field, [a + half * b for a, b in zip(x, k2)])
            k4 = eval_compiled(field, [a + step * b for a, b in zip(x, k3)])
        except OverflowError:
            raise FlowBlowUpError((i + 1) * step) from None
        x = [
            a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ]
        if not all(map(math.isfinite, x)):
            raise FlowBlowUpError((i + 1) * step)
        data.fromlist(x)
    return data


def _assert_kernel_is_the_loop(v, p, duration, h):
    """The same trajectory bytes, or the same blow-up time (its hex)."""
    def outcome(run):
        try:
            return bytes(run())
        except FlowBlowUpError as exc:
            return exc.time.hex()

    got = outcome(lambda: flow(v, p, duration, h).data)
    want = outcome(lambda: _eval_compiled_flow(v, p, duration, h))
    assert got == want
    return got


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scale_by_a_constant_is_the_product(data):
    # the constant fast path of scale_by_poly against Poly.__mul__: the same
    # terms in the same order, Fractions alike, also for the zero constant
    # and for a non-constant polynomial, which still multiplies
    v = data.draw(cubic_fields())
    c = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))
    for p in (Poly.constant(v.nvars, c), Poly.zero(v.nvars), v.components[0]):
        got = v.scale_by_poly(p)
        want = PolyVectorField(tuple(p * a for a in v.components))
        assert [comp.terms for comp in got.components] == [comp.terms for comp in want.components]
        assert all(type(k) is Fraction for comp in got.components for _, k in comp.terms)
    with pytest.raises(ValueError, match="variable count"):
        v.scale_by_poly(Poly.constant(v.nvars + 1, c))


@st.composite
def wide_fields(draw):
    """A field of 1 to 4 variables, up to 6 terms a component, exponents up to 4."""
    nvars = draw(st.integers(1, 4))
    exponent = st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars).map(tuple)
    coefficient = st.fractions(min_value=-6, max_value=6, max_denominator=9)
    return PolyVectorField(tuple(
        Poly.make(nvars, dict(draw(st.lists(st.tuples(exponent, coefficient), max_size=6))))
        for _ in range(nvars)
    ))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    wide_fields(),
    st.lists(st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=4, max_size=4),
    st.floats(-1.0, 1.0),
    st.sampled_from([0.01, 0.05, 1.0 / 64, 0.3]),
    # points for the evaluator alone: 1e200 ** 2 raises OverflowError, inf and
    # NaN run through every product and sum
    st.lists(st.lists(st.floats(-3.0, 3.0) | st.sampled_from([-0.0, math.nan, math.inf, 1e200, -1e200]),
                      min_size=4, max_size=4), min_size=1, max_size=4),
)
def test_field_kernel_matches_the_eval_compiled_loop(v, point, duration, h, probes):
    _assert_kernel_is_the_loop(v, point[: v.nvars], duration, h)
    # the compiled evaluator of the field (orbit_info's) and of each component
    # alone (the level check's)
    for probe in [point] + probes:
        x = probe[: v.nvars]
        want = _values(lambda: eval_compiled([float_terms(c) for c in v.components], x))
        assert _values(lambda: v.evaluator(*x)) == want
        assert _values(lambda: [compile_float((c,))(*x)[0] for c in v.components]) == want


def _values(evaluate):
    """The floats `evaluate()` returns, in hex, or "overflow". A NaN reads
    "nan" whatever its sign: which operand's NaN a sum of two NaNs keeps
    depends on the path the interpreter takes for it."""
    try:
        return [value.hex() for value in evaluate()]
    except OverflowError:
        return "overflow"


def test_field_kernel_edge_cases_match_the_eval_compiled_loop():
    x, y = _variable(2, 0), _variable(2, 1)
    cases = [
        # -x at x = 0 is -0.0, which the sum from 0.0 turns into 0.0
        (PolyVectorField((x.scale(-1), y.scale(-3))), [0.0, -0.0], 0.5, 0.1),
        (PolyVectorField((Poly.make(1, {(3,): 1}),)), [30.0], 1.0, 0.01),  # a power overflows
        (PolyVectorField((Poly.make(1, {(3,): 1}),)), [-30.0], -1.0, 0.01),  # backwards, from below
        (PolyVectorField((Poly.make(1, {(2,): 1}),)), [1.0], 2.0, 0.01),  # non-finite after the pole
        # x y - x y' in three variables is inf - inf = NaN at 1e300: no power overflows
        (PolyVectorField((Poly.make(3, {(1, 1, 0): 1, (1, 0, 1): -1}), Poly.zero(3), Poly.zero(3))),
         [1e300, 1e300, 1e300], 0.1, 0.01),
        (PolyVectorField((x, y)), [float("nan"), 1.0], 0.1, 0.01),  # a NaN start
        (PolyVectorField((y, x.scale(-1))), [1.0, 0.5], -0.37, 0.01),  # a negative duration
        (PolyVectorField((y, x)), [1.0, 0.5], 0.0, 0.01),  # no step at all
    ]
    outcomes = [_assert_kernel_is_the_loop(*case) for case in cases]
    assert [isinstance(o, str) for o in outcomes] == [False, True, True, True, True, True, False, False]


def test_field_kernel_of_a_200_term_commuting_family():
    f = Poly.make(2, {(a, b): Fraction(1 + a, 3 + b) for a in range(5) for b in range(5 - a)})
    fields, cert = commuting_family(f, hamiltonian_field(f), [Poly.make(1, {(3,): Fraction(1, 5)}),
                                                             Poly.make(1, {(1,): 1})])
    assert sum(len(c.terms) for c in fields[0].components) >= 200
    for field in fields:
        _assert_kernel_is_the_loop(field, [0.11, -0.07], 0.05, 1e-3)


def test_field_kernel_of_2000_terms_and_of_a_term_in_40_variables_compiles_and_flows():
    # 3 variables, every monomial of degree <= 15 in each component: 816 terms each
    monomials = [(a, b, c) for a in range(16) for b in range(16 - a) for c in range(16 - a - b)]
    big = PolyVectorField(tuple(
        Poly.make(3, {e: Fraction((-1) ** (sum(e) + k), 2 ** sum(e) * (1 + k)) for e in monomials}) for k in range(3)
    ))
    assert sum(len(c.terms) for c in big.components) >= 2000
    _assert_kernel_is_the_loop(big, [0.2, -0.1, 0.3], 0.02, 1e-3)
    # one term of 41 factors: three statements, none nesting deeper than 16 factors
    n = 40
    long_term = Poly.make(n, {tuple(1 + i % 2 for i in range(n)): Fraction(-1, 3)})
    wide = PolyVectorField((long_term,) + tuple(_variable(n, i) for i in range(1, n)))
    _assert_kernel_is_the_loop(wide, [1.0 + i / 100 for i in range(n)], 0.05, 1e-2)


def test_field_kernel_binds_coefficients_as_names_and_is_made_once():
    v = PolyVectorField((Poly.make(2, {(0, 1): Fraction(1, 3)}), Poly.make(2, {(1, 0): Fraction(-7, 11)})))
    f = v.evaluator
    assert v.evaluator is f  # made once per field
    flow(v, [1.0, 0.0], 0.1, 0.01)
    assert v.evaluator is f
    # no coefficient appears among the constants of the generated code
    assert set(f.__code__.co_consts) <= {None, 0.0}
    assert (f.__globals__["c0"], f.__globals__["c1"]) == (1 / 3, -7 / 11)
    assert f(2.0, 3.0) == (0.0 + 1 / 3 * 3.0, 0.0 + -7 / 11 * 2.0)
    with pytest.raises(ValueError, match="dimension"):
        flow(v, [1.0], 0.1, 0.01)


def test_field_kernel_compiles_each_term_once():
    # the 2448-term field of the kernel test: one line of code per term, plus
    # the signature, the return and at most one more per component
    monomials = [(a, b, c) for a in range(16) for b in range(16 - a) for c in range(16 - a - b)]
    big = PolyVectorField(tuple(
        Poly.make(3, {e: Fraction((-1) ** (sum(e) + k), 2 ** sum(e) * (1 + k)) for e in monomials}) for k in range(3)
    ))
    terms = sum(len(c.terms) for c in big.components)
    assert terms == 2448
    lines = {line for *_, line in big.evaluator.__code__.co_lines() if line is not None}
    assert len(lines) <= terms + big.nvars + 2
    assert len([k for k in big.evaluator.__globals__ if k.startswith("c")]) == terms


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


def _numpy_orbit_info(action, p):
    """The orbit dimension at p as numpy's SVD gives it, the rank above 1e-9
    times the largest singular value, and whether a value lies between 1e-9
    and 1e-6 times it: the rule of the float check that the exact
    `orbit_info` replaced."""
    rows = np.array([f.evaluator(*[float(c) for c in p]) for f in action.images])
    sv = np.linalg.svd(rows, compute_uv=False) if rows.size else np.zeros(0)
    dim = 0 if sv.size == 0 or sv[0] <= 1e-300 else int(np.sum(sv > 1e-9 * sv[0]))
    rel = sv / sv[0] if sv.size and sv[0] > 0 else sv
    return {"dimension": dim, "near_degenerate": bool(np.any((rel > 1e-9) & (rel < 1e-6)))}


def test_orbit_zero_action_fixed():
    # the zero action fixes every point; it has no unit field, so the
    # certificate of an open orbit refuses it, as it refuses no images at all
    g = catalog("abelian", 2)
    zero = PolyVectorField((Poly.zero(1),))
    with pytest.raises(ValueError, match="d/dx1"):
        orbit_info(VFAction(g, (zero, zero)))
    with pytest.raises(ValueError, match="no image fields"):
        orbit_info(VFAction(catalog("abelian", 0), ()))


def test_orbit_riccati_transitive_on_chart():
    action = make_projective_action(1)
    assert orbit_info(action) == 1
    for x in np.random.default_rng(0).uniform(-5, 5, size=20):
        assert _numpy_orbit_info(action, [x])["dimension"] == 1


def test_orbit_sl3_open_dense():
    action = make_projective_action(2)
    assert orbit_info(action) == 2
    for p in np.random.default_rng(1).normal(size=(100, 2)):
        assert _numpy_orbit_info(action, p)["dimension"] == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_info_refuses_images_without_a_unit_field(n):
    images = list(make_projective_action(n).images)
    assert orbit_info(VFAction(catalog("abelian", len(images)), tuple(reversed(images)))) == n
    for i in range(n):
        unit = PolyVectorField(tuple(Poly.constant(n, int(i == j)) for j in range(n)))
        for replacement in ([], [unit.scale(2)], [field_sum(unit, PolyVectorField((_variable(n, 0),) * n))]):
            k = images.index(unit)
            hand_made = tuple(images[:k] + replacement + images[k + 1:])
            with pytest.raises(ValueError, match=f"d/dx{i + 1} is not"):
                orbit_info(VFAction(catalog("abelian", len(hand_made)), hand_made))


def _constant_action(matrix):
    """An action whose evaluation matrix is `matrix` at every point: image
    j is the constant field given by row j."""
    rows, nvars = matrix.shape
    images = tuple(PolyVectorField(tuple(Poly.make(nvars, {(0,) * nvars: Fraction(float(x))}) for x in row))
                   for row in matrix)
    return VFAction(catalog("abelian", rows), images)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_info_matches_numpy_svd_on_degenerate_matrices(n):
    # prescribed singular values on both sides of the thresholds 1e-9 and 1e-6,
    # exact zeros, zero matrices, tall and wide shapes and scales from 1e-150
    # to 1e150: with no unit field among the rows the certificate refuses
    # every one, and with the n unit rows added it certifies n, where
    # numpy's smallest singular value is at least 1
    rng = np.random.default_rng(10 + n)
    levels = [1.0, 0.3, 1e-2, 1e-4, 10**-7.5, 1e-11, 1e-14, 0.0]
    degenerate = 0
    for _ in range(200):
        rows = int(rng.integers(1, 2 * n + 3))
        k = min(rows, n)
        u, _ = np.linalg.qr(rng.normal(size=(rows, k)))
        v, _ = np.linalg.qr(rng.normal(size=(n, k)))
        sv = np.sort(rng.choice(levels, size=k))[::-1]
        sv[0] = 1.0
        sv *= rng.random() > 0.2  # one matrix in five is zero
        scale = 10.0 ** rng.integers(-150, 150)
        matrix = (u * sv) @ v.T * scale
        degenerate += _numpy_orbit_info(_constant_action(matrix), [0.0] * n)["dimension"] < n
        with pytest.raises(ValueError, match="is not among the images"):
            orbit_info(_constant_action(matrix))
        if scale <= 1.0:
            stacked = np.vstack([matrix, np.eye(n)])
            assert orbit_info(_constant_action(stacked)) == n
            assert np.linalg.svd(stacked, compute_uv=False)[-1] >= 1.0 - 1e-12
    assert degenerate > 30  # the zero matrices at least, one in five


def test_orbit_info_of_the_zero_action_and_tiny_matrices():
    # the certificate is exact: a zero field, or a unit field scaled by any
    # factor but 1, near the ends of the float range or not, is no unit field
    for n in (1, 3, 5):
        zero = VFAction(catalog("abelian", 2), (PolyVectorField((Poly.zero(n),) * n),) * 2)
        with pytest.raises(ValueError, match="d/dx1 is not"):
            orbit_info(zero)
    for scale in (1e-310, 1e-300, 1e-290, 1e-200, 1 - 2**-53, 1 + 2**-52, 1e200, 1e300):
        for matrix in ([[scale, 0.0], [0.0, scale]], [[1.0, 0.0], [0.0, scale], [scale, 0.0]]):
            with pytest.raises(ValueError, match="is not among the images"):
                orbit_info(_constant_action(np.array(matrix)))
    assert orbit_info(_constant_action(np.array([[1e-310, 1e300], [0.0, 1.0], [1.0, 0.0]]))) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_info_matches_numpy_svd_on_projective_points(n):
    # numpy's SVD agrees with the certificate at normal points, and at points
    # a hundred times farther out than a normal draw can reach
    action = make_projective_action(n)
    points = np.random.default_rng(n).normal(size=(1000, n))
    want = {"dimension": orbit_info(action), "near_degenerate": False}
    for p in [*points, *(100.0 * points[:200])]:
        assert _numpy_orbit_info(action, p) == want, p


def test_orbit_info_flags():
    """The projective report's near-degenerate count is 0 at every point
    that `DefaultRNG.normal` can draw. A draw off the tail is below NOR_R;
    the tail gives NOR_R + log(1/(1 - u)) / NOR_R for a uniform
    u <= 1 - 2^-53, so every |z| < 13.71. On the box |x_i| <= 13.71 each
    entry of the evaluation matrix A is at most the sum of its terms'
    |c| 13.71^deg, so ||A||_F < 2500 for n <= 5, while the unit fields among
    the images keep the smallest singular value at or above 1: no singular
    value falls below 1e-6 times the largest."""
    ki, wi, _, nor_r, minus_inv_r = pcg64._ziggurat()
    assert max((k - 1) * w for k, w in zip(ki, wi) if k) < nor_r  # the boxes' fast path
    assert max((2**52 - 1) * w for w in wi[1:]) < nor_r  # the wedges
    largest_uniform = (2**53 - 1) * 2.0**-53
    bound = nor_r + minus_inv_r * math.log1p(-largest_uniform)  # the tail's extreme draw
    assert 13.7 < bound < 13.71
    for n in range(1, 6):
        action = make_projective_action(n)
        entries = [sum(abs(c) * 13.71 ** sum(e) for e, c in comp.terms)
                   for field in action.images for comp in field.components]
        assert math.sqrt(sum(x * x for x in entries)) < 2500
        assert orbit_info(action) == n
        corner = np.array([f.evaluator(*[bound] * n) for f in action.images])
        sv = np.linalg.svd(corner, compute_uv=False)
        assert np.linalg.norm(corner) < 1e6 and sv[-1] >= 1.0 and sv[-1] > 1e-6 * sv[0]


@pytest.mark.parametrize("seed", [0, 7, 1517])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_projective_report_is_built_from_numpys_normals(tmp_path, seed, n):
    """The projective `vf verify` report is the one numpy's SVD gives on the
    rows of `default_rng(seed).normal(size=samples * n)`, the points it
    drew before its orbit dimension was proved exactly."""
    samples = 300
    points = np.random.default_rng(seed).normal(size=samples * n).reshape(samples, n)
    action = make_projective_action(n)
    infos = [_numpy_orbit_info(action, p) for p in points]
    path = tmp_path / "projective.json"
    path.write_text(json.dumps({"check": "projective", "n": n, "samples": samples}))
    result = invoke(["--seed", str(seed), "vf", "verify", "--scenario", str(path)])
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["orbit_dimensions_sampled"] == sorted({info["dimension"] for info in infos})
    assert report["near_degenerate_points"] == sum(info["near_degenerate"] for info in infos)
