"""Deformation families: profiles, cocycle, algebra and group levels."""

import math

import numpy as np
import pytest

from lieactions.catalog import catalog
from lieactions.deformations import (
    AlgebraDeformation,
    bump_group_deformation,
    cocycle_check,
    concatenate,
    diag_contraction,
    group_contraction_ST,
    max_residual,
    st_deformation,
    st_prime_deformation,
    standard_profile,
    verify_deformation,
)
from lieactions.matrixgroups import in_group, random_element


# -- profile -----------------------------------------------------------------


def test_profile_boundary_clauses_exact():
    sigma = standard_profile()
    assert sigma(-1.0) == 1.0
    assert sigma(0.0) == 1.0
    assert sigma(1.0) == 0.0
    assert sigma(2.0) == 0.0


def test_profile_transition_region_strict():
    sigma = standard_profile()
    assert 0.0 < sigma(0.5) < 1.0


def test_profile_monotone_on_grid():
    sigma = standard_profile()
    values = [sigma(t) for t in np.linspace(-0.5, 1.5, 1000)]
    for a, b in zip(values, values[1:]):
        assert a >= b


def test_profile_flat_at_endpoints():
    sigma = standard_profile()
    h = 1e-3
    for t0, sign in ((0.0, 1.0), (1.0, -1.0)):
        f = [sigma(t0 + sign * k * h) for k in range(4)]
        assert abs(f[1] - f[0]) / h < 1e-6
        assert abs(f[2] - 2 * f[1] + f[0]) / h ** 2 < 1e-6
        assert abs(f[3] - 3 * f[2] + 3 * f[1] - f[0]) / h ** 3 < 1e-6


# -- cocycle ------------------------------------------------------------------


def test_cocycle_identity():
    assert cocycle_check(2)
    assert cocycle_check(8)
    assert cocycle_check(16)


def test_cocycle_corrupted_exponent():
    assert not cocycle_check(3, {(1, 3): 3})


# -- algebra deformations -------------------------------------------------------


def test_st_deformation_fixes_diagonal():
    d = st_deformation(3)
    for t in (-1.0, 0.0, 0.3, 0.9, 1.0, 2.0):
        f = d.factors(t)
        assert f[0] == 1.0 and f[1] == 1.0  # H1, H2 untouched


def test_st_deformation_kills_uppers_at_one():
    d = st_deformation(4)
    f = d.factors(1.0)
    assert all(v == 0.0 for v in f[3:])
    assert all(v == 1.0 for v in f[:3])


def test_st_deformation_preserves_commutator_ideal():
    # exponents >= 1 on strict uppers: the image of the ideal stays in it
    d = st_deformation(4)
    for t in (0.1, 0.5, 0.9):
        f = d.factors(t)
        assert all(v < 1.0 for v in f[3:])
        assert all(v == 1.0 for v in f[:3])


def test_st_deformation_endomorphism_identity():
    report = verify_deformation(st_deformation(3), samples=100)
    assert report.d1_identity_exact
    assert report.d2_constant_exact
    assert report.law_max_residual <= 1e-12
    assert not report.contraction_at_one  # diagonal survives


def test_st_prime_deformation_is_contraction():
    report = verify_deformation(st_prime_deformation(3), samples=50)
    assert report.contraction_at_one
    assert report.law_max_residual <= 1e-12


def test_diag_contraction():
    d = diag_contraction(3)
    assert d.factors(-1.0) == [1.0] * 5
    f1 = d.factors(1.0)
    assert all(f1[k] == 0.0 for k in d.domain())
    report = verify_deformation(d, samples=50)
    assert report.d1_identity_exact and report.contraction_at_one
    assert report.law_max_residual == 0.0  # abelian domain: both sides zero


def test_concatenate_formula():
    for n in (2, 3, 4):
        theta = st_deformation(n)
        psi = diag_contraction(n)
        chain = concatenate(psi, theta)
        # theta clause at t <= 1/2
        assert chain.factors(0.25) == theta.factors(0.5)
        assert chain.factors(0.1) == theta.factors(0.2)
        # (psi # theta)_1 = psi_1 . theta_1 = 0 on every basis element
        assert chain.factors(1.0) == [0.0] * chain.parent.dim
        report = verify_deformation(chain, samples=40)
        assert report.d1_identity_exact and report.d2_constant_exact
        assert report.contraction_at_one
        assert report.law_max_residual <= 1e-12


def test_concatenate_endpoint_composition():
    theta = st_deformation(3)
    psi = diag_contraction(3)
    chain = concatenate(psi, theta)
    t1 = theta.factors(1.0)
    p1 = psi.factors(1.0)
    assert chain.factors(1.0) == [a * b for a, b in zip(p1, t1)]


def test_concatenate_rejects_non_retraction():
    # the identity family keeps everything, so its endpoint image is the
    # whole algebra, not contained in the diagonal domain
    ident = AlgebraDeformation.single_stage(
        "identity", catalog("st", 3), [0, 0, 0, 0, 0]
    )
    with pytest.raises(ValueError):
        concatenate(diag_contraction(3), ident)


def test_identity_family_passes_d1_fails_contraction():
    ident = AlgebraDeformation.single_stage("identity", catalog("st", 3), [0] * 5)
    report = verify_deformation(ident, samples=20)
    assert report.d1_identity_exact
    assert not report.contraction_at_one


def test_fault_injected_cocycle_violation_detected():
    # scaling E12 and E13 by sigma but E23 by sigma^2 breaks the law on
    # [E12, E23] = E13
    fault = AlgebraDeformation.single_stage(
        "fault", catalog("st", 3), [0, 0, 1, 2, 1]
    )
    report = verify_deformation(fault, samples=50)
    assert report.law_max_residual > 1e-3


# -- group deformations -----------------------------------------------------------


def test_group_contraction_identity_element_fixed():
    gd = group_contraction_ST(3)
    eye = np.eye(3)
    for t in (-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0):
        assert np.array_equal(gd.apply(t, eye), eye)


def test_group_contraction_endpoint_trivial():
    gd = group_contraction_ST(3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_element(rng, "ST", 3)
        assert np.array_equal(gd.apply(1.0, g), np.eye(3))
        assert np.array_equal(gd.apply(1.7, g), np.eye(3))


def test_group_contraction_homomorphism_and_invariants():
    report = verify_deformation(group_contraction_ST(3), samples=200)
    assert report.d1_identity_exact
    assert report.d2_constant_exact
    assert report.contraction_at_one
    assert report.law_max_residual <= 1e-9
    assert report.extra["det_max_residual"] <= 1e-9
    assert report.extra["below_diagonal_max"] == 0.0


def test_group_contraction_stays_in_group():
    gd = group_contraction_ST(3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_element(rng, "ST", 3)
        for t in np.linspace(-0.2, 1.2, 15):
            assert in_group(gd.apply(float(t), g), "ST", tol=1e-9)


def test_bump_deformations():
    for group in ("ST", "U"):
        bd = bump_group_deformation(group, 3)
        rng = np.random.default_rng(3)
        g = random_element(rng, group, 3)
        # trivial at both ends, identity automorphism in the middle
        assert np.array_equal(bd.apply(-0.5, g), np.eye(3))
        assert np.array_equal(bd.apply(1.5, g), np.eye(3))
        assert np.array_equal(bd.apply(0.5, g), g)
        report = verify_deformation(bd, samples=200)
        assert report.trivial_outside_unit
        assert report.law_max_residual <= 1e-9
        assert not report.d1_identity_exact  # a bump is not a D1 family


def test_group_matches_algebra_deformation_to_first_order():
    # finite-difference derivative of the group family at the identity
    # matrix along basis directions equals the concatenated algebra
    # contraction, which shares its schedule
    from lieactions.catalog import catalog_matrices

    n = 3
    gd = group_contraction_ST(n)
    chain = concatenate(diag_contraction(n), st_deformation(n))
    mats = catalog_matrices("st", n)
    eps = 1e-6
    eye = np.eye(n)
    for t in (0.1, 0.3, 0.6, 0.85):
        expected = chain.factors(t)
        induced = gd.induced_algebra_factors(t)
        assert np.allclose(expected, induced, atol=1e-12)
        for k, mat in enumerate(mats):
            direction = np.array([[float(x) for x in mat.row(i)] for i in range(n)])
            fd = (gd.apply(t, eye + eps * direction) - gd.apply(t, eye)) / eps
            assert np.max(np.abs(fd - expected[k] * direction)) <= 1e-4


def test_group_smoothness_quotients_small():
    report = verify_deformation(group_contraction_ST(3), samples=10)
    assert report.flatness_max_quotient <= 1e-6


def test_state_interpolation_continuous_at_stage_joints():
    gd = group_contraction_ST(3)
    rng = np.random.default_rng(9)
    g = random_element(rng, "ST", 3)
    for joint in (0.0, 0.5, 1.0):
        before = gd.apply(joint - 1e-9, g)
        after = gd.apply(joint + 1e-9, g)
        assert np.max(np.abs(before - after)) < 1e-6


def test_bad_inputs():
    with pytest.raises(ValueError):
        st_deformation(1)
    with pytest.raises(ValueError):
        bump_group_deformation("SL2", 3)
    with pytest.raises(ValueError):
        cocycle_check(1)


# -- the compiled kernels against the former loops -----------------------------------


def _reference_group_apply(gd, t, g):
    """The former entry-by-entry GroupDeformation.apply."""
    kind, p = gd.state_at(t)
    n = gd.n
    out = np.zeros_like(g, dtype=float)
    if kind == "offdiag":
        for i in range(n):
            out[i, i] = g[i, i]
            for j in range(i + 1, n):
                out[i, j] = g[i, j] * p ** (j - i)
    else:
        for i in range(n):
            out[i, i] = g[i, i] ** p
    return out


@pytest.mark.parametrize("group", ["ST", "U"])
@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_group_apply_matches_entry_loop(group, n):
    rng = np.random.default_rng(n)
    families = [bump_group_deformation(group, n)]
    if group == "ST":
        families.append(group_contraction_ST(n))
    g = random_element(rng, group, n)
    h = random_element(rng, group, n)
    # signed zeros and negative entries below the diagonal must still give +0.0 there
    odd = g @ h
    odd[np.tril_indices(n, -1)] = [(-1.0) ** k * (0.0 if k % 3 else 7.5) for k in range(n * (n - 1) // 2)]
    odd[0, -1] = -0.0
    times = [-1.0, 0.0, 0.05, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 2.0]
    times += list(rng.uniform(0.0, 1.0, size=10))
    for gd in families:
        for m in (g, h, g @ h, odd):
            for t in times:
                got, want = gd.apply(t, m), _reference_group_apply(gd, t, m)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


def _reference_random_element(rng, group, n):
    """The former per-entry draws: the ST diagonal first, then each strict upper entry."""
    if group == "ST":
        g = np.zeros((n, n))
        diag = rng.uniform(0.5, 2.0, size=n)
        diag = diag / diag.prod() ** (1.0 / n)
        for i in range(n):
            g[i, i] = diag[i]
            for j in range(i + 1, n):
                g[i, j] = rng.uniform(-2.0, 2.0)
        return g
    g = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            g[i, j] = rng.uniform(-2.0, 2.0)
    return g


@pytest.mark.parametrize("group", ["ST", "U"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_random_element_matches_per_entry_draws(group, n):
    rng, ref = np.random.default_rng(100 + n), np.random.default_rng(100 + n)
    for _ in range(50):
        got, want = random_element(rng, group, n), _reference_random_element(ref, group, n)
        assert got.shape == want.shape == (n, n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert rng.bit_generator.state == ref.bit_generator.state


def test_max_residual_keeps_nan_and_inf():
    nan, inf = float("nan"), float("inf")
    assert max_residual(0.0) == 0.0
    assert max_residual(0.0, 1.0, 3.0, 2.0) == 3.0
    assert max_residual(0.0, 1.0, inf, 2.0) == inf
    for values in [(nan,), (1.0, nan), (nan, 5.0), (2.0, nan, 1.0, inf)]:
        assert math.isnan(max_residual(0.0, *values)), values
        assert math.isnan(max_residual(max_residual(0.0, *values), 1.0, 9.0))
    assert math.isnan(max_residual(nan, 4.0))
