"""Deformation families: profiles, algebra and group levels."""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieactions.catalog import catalog
from lieactions.constants import DEFAULT_SEED
from lieactions.deformations import (
    _CHECK_TIMES,
    AlgebraDeformation,
    _flatness_quotient,
    bump_group_deformation,
    concatenate,
    diag_contraction,
    max_residual,
    st_deformation,
    st_prime_deformation,
    standard_profile,
    verify_deformation,
)
from lieactions.matrixgroups import random_element


def _in_st(g, tol):
    """g is upper triangular with positive diagonal of product 1, to tol."""
    n = g.shape[0]
    below = max((abs(g[i, j]) for i in range(n) for j in range(i)), default=0.0)
    return below <= tol and bool(np.all(np.diag(g) > 0)) and abs(np.prod(np.diag(g)) - 1.0) <= tol * 10


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
#
# The group families are the bump families of the ball actions: their stages
# cover both kinds ("diagpow" in ST, "offdiag" in ST and U), and each is the
# trivial endomorphism from t = 1 on, so also a contraction at t = 1.

BUMPS = [bump_group_deformation("ST", 3), bump_group_deformation("U", 3)]


def at(gd, t, g):
    """The endomorphism of gd at time t applied to the one matrix g: a block of one."""
    return gd.apply_many([t], g[None])[0]


def joints(gd):
    """The ends of the stages of gd, in order."""
    return sorted({t for stage in gd.stages for t in (stage.t0, stage.t1)})


GroupCheck = namedtuple("GroupCheck", (
    "identity_at_start constant_after_one contraction_at_one trivial_outside_unit flatness_max_quotient "
    "law_max_residual det_max_residual below_diagonal_max"
))


def verify_group(gd, samples=100, seed=DEFAULT_SEED):
    """The checks of a group family on seeded elements: whether it is the
    identity at t <= 0, constant for t >= 1, trivial at t = 1 and outside
    (0, 1); the flatness quotients at t = 0 and 1; the homomorphism residual
    of (gh)_t = g_t h_t at the check times; and how far the images leave the
    group (determinant one, upper triangular)."""
    rng = np.random.default_rng(seed)
    n = gd.n
    eye = np.eye(n)
    probes = np.array([random_element(rng, gd.group, n) for _ in range(8)])
    ts = _CHECK_TIMES + list(rng.uniform(0.0, 1.0, size=5))

    def each(t, gs):
        return gd.apply_many([t] * len(gs), gs)

    def every_time(g):
        return gd.apply_many(ts, np.array([g] * len(ts)))

    law = below = 0.0
    lower = np.tril_indices(n, -1)
    for _ in range(samples):
        g = random_element(rng, gd.group, n)
        h = random_element(rng, gd.group, n)
        lhs = every_time(g @ h)
        law = max_residual(law, float(np.abs(lhs - every_time(g) @ every_time(h)).max()))
        below = max_residual(below, *np.abs(lhs[:, lower[0], lower[1]]).ravel().tolist())
    dets = np.linalg.det(gd.apply_many(ts * len(probes), np.repeat(probes, len(ts), axis=0)))
    return GroupCheck(
        all(np.array_equal(each(t, probes), probes) for t in (-1.0, 0.0)),
        np.array_equal(each(1.0, probes), each(2.0, probes)),
        all(np.array_equal(m, eye) for m in each(1.0, probes)),
        all(np.array_equal(m, eye) for t in (-1.0, 2.0) for m in each(t, probes)),
        _flatness_quotient(lambda t: at(gd, t, probes[0]).ravel().tolist(), [0.0, 1.0]),
        law,
        max_residual(0.0, *np.abs(dets - 1.0).tolist()),
        below,
    )


def test_group_contraction_identity_element_fixed():
    for gd in BUMPS:
        eye = np.eye(3)
        for t in (-1.0, 0.0, 0.05, 0.15, 0.25, 0.35, 0.5, 0.75, 0.9, 1.0, 2.0):
            assert np.array_equal(at(gd, t, eye), eye)


def test_group_contraction_endpoint_trivial():
    for gd in BUMPS:
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_element(rng, gd.group, 3)
            assert np.array_equal(at(gd, 1.0, g), np.eye(3))
            assert np.array_equal(at(gd, 1.7, g), np.eye(3))


def test_group_contraction_homomorphism_and_invariants():
    for gd in BUMPS:
        report = verify_group(gd, samples=200)
        assert not report.identity_at_start  # a bump is not a D1 family
        assert report.constant_after_one
        assert report.contraction_at_one
        assert report.trivial_outside_unit
        assert report.law_max_residual <= 1e-9
        assert report.det_max_residual <= 1e-9
        assert report.below_diagonal_max == 0.0


def test_group_contraction_stays_in_group():
    times = [float(t) for t in np.linspace(-0.2, 1.2, 15)]
    for gd in BUMPS:
        rng = np.random.default_rng(11)
        for _ in range(20):
            images = gd.apply_many(times, np.array([random_element(rng, gd.group, 3)] * len(times)))
            for image in images:
                assert _in_st(image, tol=1e-9)
                if gd.group == "U":
                    assert np.array_equal(np.diag(image), np.ones(3))


def test_bump_deformations():
    for gd in BUMPS:
        rng = np.random.default_rng(3)
        g = random_element(rng, gd.group, 3)
        # trivial at both ends, identity automorphism in the middle
        assert np.array_equal(at(gd, -0.5, g), np.eye(3))
        assert np.array_equal(at(gd, 1.5, g), np.eye(3))
        assert np.array_equal(at(gd, 0.5, g), g)


def test_group_smoothness_quotients_small():
    for gd in BUMPS:
        g = random_element(np.random.default_rng(4), gd.group, 3)
        # a stage spans 0.2 or 0.3, so the default step 1e-3 still sees the profile
        # leave its ends; at 1e-4 the quotients are rounding (an ulp over h^3 is 2.2e-4),
        # where a kink would give a first quotient of order one
        assert _flatness_quotient(lambda t: at(gd, t, g).ravel().tolist(), joints(gd), h=1e-4) <= 1e-3
        assert verify_group(gd, samples=10).flatness_max_quotient <= 1e-6


def test_state_interpolation_continuous_at_stage_joints():
    for gd in BUMPS:
        rng = np.random.default_rng(9)
        g = random_element(rng, gd.group, 3)
        for joint in joints(gd):
            before = at(gd, joint - 1e-9, g)
            after = at(gd, joint + 1e-9, g)
            assert np.max(np.abs(before - after)) < 1e-6


def test_bad_inputs():
    with pytest.raises(ValueError):
        st_deformation(1)
    with pytest.raises(ValueError):
        bump_group_deformation("SL2", 3)
    with pytest.raises(ValueError, match="unknown group tag"):
        random_element(np.random.default_rng(0), "SL2", 2)


# -- the compiled kernels against the former loops -----------------------------------


def _reference_group_apply(gd, t, g):
    """The endomorphism of gd at time t applied to g, entry by entry."""
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
    gd = bump_group_deformation(group, n)
    g = random_element(rng, group, n)
    h = random_element(rng, group, n)
    # signed zeros and negative entries below the diagonal must still give +0.0 there
    odd = g @ h
    odd[np.tril_indices(n, -1)] = [(-1.0) ** k * (0.0 if k % 3 else 7.5) for k in range(n * (n - 1) // 2)]
    odd[0, -1] = -0.0
    times = [-1.0, 0.0, 0.05, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 2.0]
    times += list(rng.uniform(0.0, 1.0, size=10))

    def same(got, want):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    for m in (g, h, g @ h, odd):
        want = np.array([_reference_group_apply(gd, t, m) for t in times])
        same(np.array([at(gd, t, m) for t in times]), want)  # blocks of one
        same(gd.apply_many(times, np.array([m] * len(times))), want)  # one block that holds every time


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


# -- the flatness quotients on Python floats against numpy ---------------------------


def _reference_flatness_quotient(values, boundary_times, h=1e-3):
    """The former `_flatness_quotient`, on numpy arrays."""
    worst = 0.0
    with np.errstate(all="ignore"):
        for t0 in boundary_times:
            for sign in (+1.0, -1.0):
                f0 = np.asarray(values(t0), dtype=float)
                f1 = np.asarray(values(t0 + sign * h), dtype=float)
                f2 = np.asarray(values(t0 + 2 * sign * h), dtype=float)
                f3 = np.asarray(values(t0 + 3 * sign * h), dtype=float)
                q1 = np.max(np.abs(f1 - f0)) / h
                q2 = np.max(np.abs(f2 - 2 * f1 + f0)) / h ** 2
                q3 = np.max(np.abs(f3 - 3 * f2 + 3 * f1 - f0)) / h ** 3
                worst = max(worst, float(q1), float(q2), float(q3))
    return worst


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_flatness_quotient_matches_numpy_on_every_family(n):
    for d in (st_deformation(n), st_prime_deformation(n), diag_contraction(n),
              concatenate(diag_contraction(n), st_deformation(n))):
        assert _flatness_quotient(d.factors, [0.0, 1.0]) == _reference_flatness_quotient(d.factors, [0.0, 1.0])
    rng = np.random.default_rng(n)
    for gd in (bump_group_deformation("ST", n), bump_group_deformation("U", n)):
        g = random_element(rng, gd.group, n)
        values = lambda t, gd=gd, g=g: at(gd, t, g).ravel().tolist()
        for times in ([0.0, 1.0], joints(gd)):
            assert _flatness_quotient(values, times) == _reference_flatness_quotient(values, times)


SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, 1.7e308, math.inf, -math.inf, math.nan])


@st.composite
def value_rows(draw):
    """The 16 value lists one call takes (2 boundaries x 2 sides x 4 times):
    one row repeated, so that most differences vanish, with a few entries
    replaced by NaN, an infinity or any float."""
    dim = draw(st.integers(1, 4))
    base = draw(st.lists(st.floats(-10, 10), min_size=dim, max_size=dim))
    rows = [list(base) for _ in range(16)]
    changes = st.tuples(st.integers(0, 15), st.integers(0, dim - 1), st.one_of(SPECIAL, st.floats()))
    for k, i, x in draw(st.lists(changes, max_size=6)):
        rows[k][i] = x
    return rows


def _one_changed_row(k, row):
    return [list(row) if j == k else [0.0] * len(row) for j in range(16)]


@settings(max_examples=300, deadline=None)
@given(value_rows())
# a NaN beside a finite difference, on either side of it: the builtin max would keep the latter
@example(_one_changed_row(1, [math.nan, 5.0]))
@example(_one_changed_row(5, [5.0, math.nan]))
@example(_one_changed_row(2, [math.inf, -3.0]))
def test_flatness_quotient_matches_numpy_on_nan_and_inf(rows):
    def values_from(rows):
        it = iter(rows)
        return lambda t: next(it)

    got = _flatness_quotient(values_from(rows), [0.0, 1.0])
    want = _reference_flatness_quotient(values_from(rows), [0.0, 1.0])
    assert _same_float(got, want), (got, want)
