"""Deformation families: profiles, algebra and group levels."""

import math
from collections import namedtuple
from fractions import Fraction
from operator import sub

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
    _half_bracket,
    _sample_vector,
    bump_group_deformation,
    concatenate,
    diag_contraction,
    max_residual,
    smooth_step,
    st_deformation,
    st_prime_deformation,
    verify_deformation,
)
from lieactions.matrixgroups import identity, random_element, triangular_product
from lieactions.pcg64 import DefaultRNG

from pair_rows import exact_bracket
from test_algebra import _reference_bracket_numeric, _rescaled


def as_matrix(flat):
    """A flat row-major n x n tuple as an n x n array."""
    n = math.isqrt(len(flat))
    return np.array(flat, dtype=float).reshape(n, n)


def _in_st(g, tol):
    """g (an array) is upper triangular with positive diagonal of product 1, to tol."""
    n = g.shape[0]
    below = max((abs(g[i, j]) for i in range(n) for j in range(i)), default=0.0)
    return below <= tol and bool(np.all(np.diag(g) > 0)) and abs(np.prod(np.diag(g)) - 1.0) <= tol * 10


# -- profile -----------------------------------------------------------------


def test_profile_boundary_clauses_exact():
    assert smooth_step(-1.0) == 1.0
    assert smooth_step(0.0) == 1.0
    assert smooth_step(1.0) == 0.0
    assert smooth_step(2.0) == 0.0


def test_profile_transition_region_strict():
    assert 0.0 < smooth_step(0.5) < 1.0


def test_profile_monotone_on_grid():
    values = [smooth_step(t) for t in np.linspace(-0.5, 1.5, 1000)]
    for a, b in zip(values, values[1:]):
        assert a >= b


def test_profile_flat_at_endpoints():
    h = 1e-3
    for t0, sign in ((0.0, 1.0), (1.0, -1.0)):
        f = [smooth_step(t0 + sign * k * h) for k in range(4)]
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
    """The endomorphism of gd at time t applied to the one flat matrix g: a block of one."""
    return gd.apply_many([t], [g])[0]


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
    rng = DefaultRNG(seed)
    n = gd.n
    eye = identity(n)
    mul = triangular_product(n)
    probes = [random_element(rng, gd.group, n) for _ in range(8)]
    ts = _CHECK_TIMES + rng.uniform(0.0, 1.0, 5)

    def each(t, gs):
        return gd.apply_many([t] * len(gs), gs)

    def every_time(g):
        return gd.apply_many(ts, [g] * len(ts))

    law = below = 0.0
    lower = [i * n + j for i in range(n) for j in range(i)]
    for _ in range(samples):
        g = random_element(rng, gd.group, n)
        h = random_element(rng, gd.group, n)
        lhs = every_time(mul(g, h))
        for image, gt, ht in zip(lhs, every_time(g), every_time(h)):
            law = max_residual(law, *(abs(a - b) for a, b in zip(image, mul(gt, ht))))
            below = max_residual(below, *(abs(image[k]) for k in lower))
    images = gd.apply_many(ts * len(probes), [p for p in probes for _ in ts])
    dets = np.linalg.det(np.array([as_matrix(m) for m in images]))
    return GroupCheck(
        all(each(t, probes) == probes for t in (-1.0, 0.0)),
        each(1.0, probes) == each(2.0, probes),
        all(m == eye for m in each(1.0, probes)),
        all(m == eye for t in (-1.0, 2.0) for m in each(t, probes)),
        _flatness_quotient(lambda t: list(at(gd, t, probes[0])), [0.0, 1.0]),
        law,
        max_residual(0.0, *np.abs(dets - 1.0).tolist()),
        below,
    )


def test_group_contraction_identity_element_fixed():
    for gd in BUMPS:
        eye = identity(3)
        for t in (-1.0, 0.0, 0.05, 0.15, 0.25, 0.35, 0.5, 0.75, 0.9, 1.0, 2.0):
            assert at(gd, t, eye) == eye


def test_group_contraction_endpoint_trivial():
    for gd in BUMPS:
        rng = DefaultRNG(5)
        for _ in range(10):
            g = random_element(rng, gd.group, 3)
            assert at(gd, 1.0, g) == identity(3)
            assert at(gd, 1.7, g) == identity(3)


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
        rng = DefaultRNG(11)
        for _ in range(20):
            images = gd.apply_many(times, [random_element(rng, gd.group, 3)] * len(times))
            for image in images:
                assert _in_st(as_matrix(image), tol=1e-9)
                if gd.group == "U":
                    assert image[::4] == (1.0, 1.0, 1.0)


def test_bump_deformations():
    for gd in BUMPS:
        rng = DefaultRNG(3)
        g = random_element(rng, gd.group, 3)
        # trivial at both ends, identity automorphism in the middle
        assert at(gd, -0.5, g) == identity(3)
        assert at(gd, 1.5, g) == identity(3)
        assert at(gd, 0.5, g) == g


def test_group_smoothness_quotients_small():
    for gd in BUMPS:
        g = random_element(DefaultRNG(4), gd.group, 3)
        # a stage spans 0.2 or 0.3, so the default step 1e-3 still sees the profile
        # leave its ends; at 1e-4 the quotients are rounding (an ulp over h^3 is 2.2e-4),
        # where a kink would give a first quotient of order one
        assert _flatness_quotient(lambda t: list(at(gd, t, g)), joints(gd), h=1e-4) <= 1e-3
        assert verify_group(gd, samples=10).flatness_max_quotient <= 1e-6


def test_state_interpolation_continuous_at_stage_joints():
    for gd in BUMPS:
        rng = DefaultRNG(9)
        g = random_element(rng, gd.group, 3)
        for joint in joints(gd):
            before = at(gd, joint - 1e-9, g)
            after = at(gd, joint + 1e-9, g)
            assert max(abs(a - b) for a, b in zip(before, after)) < 1e-6


def test_bad_inputs():
    with pytest.raises(ValueError):
        st_deformation(1)
    with pytest.raises(ValueError):
        bump_group_deformation("SL2", 3)
    with pytest.raises(ValueError, match="unknown group tag"):
        random_element(DefaultRNG(0), "SL2", 2)


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
    rng = DefaultRNG(n)
    gd = bump_group_deformation(group, n)
    g = as_matrix(random_element(rng, group, n))
    h = as_matrix(random_element(rng, group, n))
    # signed zeros and negative entries below the diagonal must still give +0.0 there
    odd = g @ h
    odd[np.tril_indices(n, -1)] = [(-1.0) ** k * (0.0 if k % 3 else 7.5) for k in range(n * (n - 1) // 2)]
    odd[0, -1] = -0.0
    times = [-1.0, 0.0, 0.05, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 2.0]
    times += rng.uniform(0.0, 1.0, 10)

    def same(got, want):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    for m in (g, h, g @ h, odd):
        want = np.array([_reference_group_apply(gd, t, m).ravel() for t in times])
        flat = tuple(m.ravel().tolist())
        same(np.array([at(gd, t, flat) for t in times]), want)  # blocks of one
        same(np.array(gd.apply_many(times, [flat] * len(times))), want)  # one block that holds every time


def _reference_random_element(rng, group, n):
    """The former per-entry draws of numpy's generator: the ST diagonal
    first, then each strict upper entry."""
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
    # the standard-library draws are those of numpy's generator, bit for bit
    rng, ref = DefaultRNG(100 + n), np.random.default_rng(100 + n)
    for _ in range(50):
        got, want = random_element(rng, group, n), _reference_random_element(ref, group, n)
        assert len(got) == n * n
        assert np.array_equal(as_matrix(got), want)
        assert np.array_equal(np.signbit(as_matrix(got)), np.signbit(want))
        assert rng._state == ref.bit_generator.state["state"]["state"]


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
    rng = DefaultRNG(n)
    for gd in (bump_group_deformation("ST", n), bump_group_deformation("U", n)):
        g = random_element(rng, gd.group, n)
        values = lambda t, gd=gd, g=g: list(at(gd, t, g))
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


# -- the law check in integers against the Fraction path it replaced ---------------


def _fraction_vector(rng, dim, support):
    """The sampler the integer one replaced: each support coordinate Fraction(p, q)."""
    v = [Fraction(0)] * dim
    for k in support:
        v[k] = Fraction(rng.integers(-3, 4), rng.integers(1, 3))
    return v


# st(3) in a basis with denominators, so that `LieAlgebra.den` is above 1
RESCALED = _rescaled(catalog("st3"), [Fraction(1, 2), Fraction(3), Fraction(2, 5), Fraction(7, 3), Fraction(5, 4)])


@pytest.mark.parametrize("g", [catalog("st4"), catalog("st_prime", 5), RESCALED], ids=lambda g: g.name)
def test_integer_samples_and_brackets_match_fractions(g):
    if g is RESCALED:
        assert g.den > 1
    support = list(range(g.dim))[1:]  # one coordinate off the support
    ours, theirs = DefaultRNG(11), DefaultRNG(11)
    for _ in range(200):
        (x2, xf), (y2, yf) = _sample_vector(ours, g.dim, support), _sample_vector(ours, g.dim, support)
        x, y = _fraction_vector(theirs, g.dim, support), _fraction_vector(theirs, g.dim, support)
        assert x2 == [2 * c for c in x] and y2 == [2 * c for c in y]
        assert list(map(repr, xf + yf)) == [repr(float(c)) for c in x + y]
        got = _half_bracket(g, x2, y2)
        assert list(map(repr, got)) == [repr(float(c)) for c in exact_bracket(g, x, y)]
    assert ours.integers(0, 1 << 32) == theirs.integers(0, 1 << 32)  # the same draws were taken


def _reference_law(d, samples, seed):
    """The law residual of `verify_deformation` as it was: Fraction samples,
    the exact Fraction bracket, and the float bracket as a loop."""
    rng = DefaultRNG(seed)
    g, support = d.parent, d.domain()
    ts = _CHECK_TIMES + rng.uniform(0.0, 1.0, 5)
    law = 0.0
    for _ in range(samples):
        x, y = _fraction_vector(rng, g.dim, support), _fraction_vector(rng, g.dim, support)
        xf, yf, xyf = ([float(c) for c in v] for v in (x, y, exact_bracket(g, x, y)))
        for t in ts:
            f = d.factors(t)
            lhs = [a * b for a, b in zip(f, xyf)]
            rhs = _reference_bracket_numeric(g, [a * b for a, b in zip(f, xf)], [a * b for a, b in zip(f, yf)])
            law = max_residual(law, *map(abs, map(sub, lhs, rhs)))
    return law


@pytest.mark.parametrize("seed", [7, DEFAULT_SEED])
def test_law_residual_matches_the_fraction_path(seed):
    families = [st_deformation(4), st_prime_deformation(5), concatenate(diag_contraction(4), st_deformation(4)),
                AlgebraDeformation.single_stage("fault", catalog("st", 3), [0, 0, 1, 2, 1]),
                AlgebraDeformation.single_stage("rescaled", RESCALED, [0, 0, 1, 1, 2])]
    for d in families:
        assert repr(verify_deformation(d, 40, seed).law_max_residual) == repr(_reference_law(d, 40, seed)), d.label
