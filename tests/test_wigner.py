import math

import numpy as np
import pytest
from scipy.linalg import expm, polar
from scipy.optimize import brentq

from gravent import (
    ChargedBlackHole,
    DomainError,
    ETA,
    HorizonError,
    OrbitParams,
    SweepSpec,
    circular_orbit_state,
    figure_preset,
    kruskal_rate,
    lambda_circular,
    lambda_radial,
    momentum_factor,
    product_integral,
    rotation_matrix,
    schwarzschild_rate,
    spin_rep,
    sweep_point,
    theta_circular,
    theta_zeros,
    wigner_rate_matrix,
    wigner_rate_w13,
)
from gravent.wigner import MAX_RADIUS, radial_factor

Z1_016 = 1.2424428900898052          # (3 + sqrt(9 - 32*0.16)) / 4
ZEROS_0265 = (0.5697224362268005, 0.9302775637731995)


def test_orbit_params_validation():
    OrbitParams(0.16, 1.6, 0.6, 1.0, 5.0)  # valid
    with pytest.raises(HorizonError):
        OrbitParams(0.16, 0.8, 0.6, 1.0, 5.0)
    with pytest.raises(HorizonError):
        OrbitParams(0.0, 0.9, 0.6, 1.0, 5.0)
    with pytest.raises(DomainError):
        OrbitParams(0.5, -1.0, 0.6, 1.0, 5.0)
    with pytest.raises(DomainError):
        OrbitParams(0.16, 1.6, 0.6, 0.0, 5.0)
    with pytest.raises(DomainError):
        OrbitParams(0.16, 1.6, 0.6, 1.0, -0.1)
    # naked singularity admits any positive radius
    OrbitParams(0.5, 0.05, 0.6, 1.0, 5.0)


@pytest.mark.parametrize("field", range(5))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_orbit_params_reject_non_finite(field, bad):
    values = [0.16, 1.6, 0.6, 1.0, 5.0]
    values[field] = bad
    with pytest.raises(DomainError, match="must be finite"):
        OrbitParams(*values)


def test_orbit_params_bound_the_momentum():
    # past |q| = 1e8 the bracket of M(q, p) keeps fewer than 8 digits; at
    # q = 1e17 it is exactly 0 and E would read 1 with no flag
    for q in (1e8, -1e8):
        OrbitParams(0.0, 2.0, q, 1.0, 5.0)
    for q in (1.0000001e8, -1e9, 1e17, 1e200):
        with pytest.raises(DomainError, match=r"\|q\| must be <= 1e\+08"):
            OrbitParams(0.0, 2.0, q, 1.0, 5.0)
    spec = SweepSpec("q", 0.0, 1e17, 2, OrbitParams(0.0, 2.0, 0.0, 1.0, 5.0))
    assert sweep_point(spec, 1e17).flags == ("domain",)


def test_orbit_params_bound_the_radius():
    # from z ~ 5.6e102 on, 2 z^2 sqrt(z^2 - z + xi2) overflows and the
    # amplitude would be nan; up to MAX_RADIUS every intermediate is finite
    OrbitParams(0.16, MAX_RADIUS, 0.6, 1.0, 5.0)
    for z in (1.0000001e100, 1e103, 1e160):
        with pytest.raises(DomainError, match=r"orbit radius must be <= 1e\+100"):
            OrbitParams(0.16, z, 0.6, 1.0, 5.0)
    assert sweep_point(figure_preset(4), 1e160).flags == ("domain",)
    row = sweep_point(figure_preset(4), 1e99)
    assert row.flags == () and row.E == 1.0


@pytest.mark.parametrize("values,error,message", [
    ((math.nan, -1.0, 1e9, 0.0, -1.0), DomainError, "xi2 must be finite"),
    ((0.16, -1.0, math.inf, 0.0, -1.0), DomainError, "q must be finite"),
    ((-1.0, -1.0, 1e9, 0.0, -1.0), DomainError, "xi2 must be >= 0"),
    ((0.16, -1.0, 1e9, 0.0, -1.0), DomainError, r"\|q\| must be <= 1e\+08"),
    ((0.16, -1.0, 0.6, 0.0, -1.0), DomainError, "orbit radius must be positive"),
    ((0.16, 1e101, 0.6, 0.0, -1.0), DomainError, r"orbit radius must be <= 1e\+100"),
    ((0.16, 0.5, 0.6, 0.0, -1.0), DomainError, "beta must be positive"),
    ((0.16, 0.5, 0.6, 1.0, -1.0), DomainError, "tau_ratio must be >= 0"),
    ((0.16, 0.5, 0.6, 1.0, 5.0), HorizonError, "not outside the outer horizon"),
])
def test_orbit_params_report_the_first_failing_check(values, error, message):
    # with several checks failing, the one OrbitParams makes first is raised
    with pytest.raises(error, match=message):
        OrbitParams(*values)


def test_radial_factor_masks_every_radius_inside_the_outer_horizon():
    # below the inner horizon z- = 0.2 of xi2 = 0.16, z^2 - z + xi2 > 0 again
    # and the factor is finite, but the radius is no orbit outside the hole
    factor, singular = radial_factor(0.1, 0.16)
    assert math.isfinite(factor) and singular
    _, singular = radial_factor(np.array([0.1, 0.2, 0.5, 0.8, 0.8 + 1e-6]), 0.16)
    assert singular.tolist() == [True, True, True, True, False]
    # no horizon at all: only the zero of z^2 - z + xi2 near z = 1/2 is singular
    _, singular = radial_factor(np.array([0.1, 0.5, 2.0]), 0.25 + 1e-12)
    assert singular.tolist() == [False, True, False]


def test_mass_shell_identity():
    model = ChargedBlackHole(0.16)
    for q in (-10.0, -0.5, 0.0, 0.6, 3.0, 10.0):
        state = circular_orbit_state(model, 1.6, q)
        assert abs(state.q0**2 - state.q3**2 - 1.0) < 1e-12
        assert state.gamma == pytest.approx(math.hypot(q, 1.0), rel=1e-15)


def test_static_observer_acceleration():
    # q=0: held in place against gravity, a1 = e^{-B} A'
    model = ChargedBlackHole(0.16)
    state = circular_orbit_state(model, 1.6, 0.0)
    a, b, a_prime = 0.0, model.B(1.6), model.A_prime(1.6)
    assert state.a1 == pytest.approx(math.exp(-b) * a_prime, rel=1e-14)


def test_force_free_circle_approaches_photon_orbit():
    # for the uncharged hole the a1 = 0 radius tends to 3/2 as gamma grows
    model = ChargedBlackHole(0.0)
    q = 1e3
    root = brentq(lambda z: circular_orbit_state(model, z, q).a1, 1.4, 2.9,
                  xtol=1e-12)
    assert abs(root - 1.5) < 1e-3


def test_lambda_circular_structure():
    model = ChargedBlackHole(0.16)
    lam = lambda_circular(model, 1.6, 0.6)
    gamma = math.hypot(0.6, 1.0)
    fac = math.exp(-model.B(1.6)) * (model.A_prime(1.6) - 1.0 / 1.6)
    assert lam[0, 1] == pytest.approx(gamma * 0.36 * fac, rel=1e-14)
    assert lam[1, 0] == lam[0, 1]
    assert lam[1, 3] == pytest.approx(-gamma**2 * 0.6 * fac, rel=1e-14)
    assert lam[3, 1] == -lam[1, 3]
    # exactly four non-zero entries
    mask = lam != 0.0
    assert mask.sum() == 4
    # Lorentz generator property
    gen = lam @ ETA
    assert np.abs(gen + gen.T).max() < 1e-12
    # q=0 kills both entries
    assert np.all(lambda_circular(model, 1.6, 0.0) == 0.0)


def test_lambda_vanishes_where_rate_vanishes():
    # A' = 1/z exactly at the angle zeros, so the generator dies there too
    lam = lambda_circular(ChargedBlackHole(0.16), Z1_016, 0.9)
    assert np.abs(lam).max() < 1e-13


def test_wigner_rate_values():
    model = ChargedBlackHole(0.16)
    assert wigner_rate_w13(model, 1.6, 0.0, 0.3) == 0.0
    for p in (-5.0, 0.0, 0.6, 12.0):
        assert abs(wigner_rate_w13(model, Z1_016, 0.6, p)) < 1e-12
    # momentum factor at p=q collapses to q*gamma
    for q in (-3.0, 0.25, 1.7):
        assert momentum_factor(q, q) == pytest.approx(q * math.hypot(q, 1.0),
                                                      rel=1e-14)
    # rate matrix is antisymmetric with zero diagonal
    w = wigner_rate_matrix(model, 1.6, 0.6, 0.3)
    assert np.abs(w + w.T).max() == 0.0
    assert np.all(np.diag(w) == 0.0)


def test_rate_matches_schwarzschild_closed_form():
    model = ChargedBlackHole(0.0)
    for r in (1.2, 1.5, 3.0, 20.0):
        for q, p in ((0.6, 0.0), (1.3, -0.4)):
            assert wigner_rate_w13(model, r, q, p) == pytest.approx(
                schwarzschild_rate(r, q, p), rel=1e-12)


def test_theta_circular_closed_form_vs_rate():
    params = OrbitParams(0.16, 1.6, 0.6, 1.0, 5.0)
    model = ChargedBlackHole(0.16)
    tau = 2.0 * math.pi * 5.0
    for p in (-2.0, 0.0, 0.6, 4.0):
        assert theta_circular(params, p) == pytest.approx(
            tau * wigner_rate_w13(model, 1.6, 0.6, p), rel=1e-12)


def test_theta_zero_cases():
    # overall q factor
    params = OrbitParams(0.16, 1.6, 0.0, 1.0, 5.0)
    assert theta_circular(params, 0.3) == 0.0
    # zero time
    params = OrbitParams(0.16, 1.6, 0.6, 1.0, 0.0)
    assert theta_circular(params, 0.3) == 0.0
    # the accessible angle zero
    params = OrbitParams(0.16, Z1_016, 0.6, 1.0, 5.0)
    assert abs(theta_circular(params, 0.0)) < 1e-12


def test_theta_diverges_at_horizon():
    params = OrbitParams(0.16, 0.8 + 1e-8, 0.6, 1.0, 5.0)
    assert abs(theta_circular(params, 0.0)) > 1e3


def test_theta_odd_under_momentum_reflection():
    params = OrbitParams(0.16, 1.6, 0.6, 1.0, 5.0)
    mirrored = OrbitParams(0.16, 1.6, -0.6, 1.0, 5.0)
    for p in (-1.0, 0.0, 0.7, 3.3):
        assert theta_circular(params, p) == -theta_circular(mirrored, -p)


def test_theta_zeros_values():
    assert theta_zeros(0.16) == pytest.approx([Z1_016], abs=1e-10)
    assert theta_zeros(0.265) == pytest.approx(list(ZEROS_0265), abs=1e-10)
    assert theta_zeros(0.25) == pytest.approx([1.0], abs=1e-10)
    assert theta_zeros(0.3) == []
    assert theta_zeros(0.5) == []
    assert theta_zeros(9.0 / 32.0) == pytest.approx([0.75], abs=1e-12)
    # Schwarzschild: only the photon-circle radius survives the filter
    assert theta_zeros(0.0) == pytest.approx([1.5], abs=1e-10)


def test_theta_zeros_are_roots_of_the_quadratic():
    for xi2 in np.linspace(0.0, 9.0 / 32.0, 2001):
        for z in theta_zeros(float(xi2)):
            assert abs(2 * z * z - 3 * z + 4 * xi2) <= 1e-14, (xi2, z)


def test_lambda_radial_pure_boost():
    model = ChargedBlackHole(0.0)
    lam, rate = lambda_radial(model, 3.0, 0.5)
    gamma = 1.0 / math.sqrt(1.0 - 0.25)
    expected = -gamma * model.A_prime(3.0) * math.exp(-model.B(3.0))
    assert lam[0, 1] == pytest.approx(expected, rel=1e-14)
    assert lam[1, 0] == lam[0, 1]
    assert (lam != 0.0).sum() == 2
    assert np.all(rate == 0.0)
    # v=0 limit
    lam0, _ = lambda_radial(model, 3.0, 0.0)
    assert lam0[0, 1] == pytest.approx(
        -model.A_prime(3.0) * math.exp(-model.B(3.0)), rel=1e-14)
    with pytest.raises(DomainError):
        lambda_radial(model, 3.0, 1.0)


def test_rotation_matrix_and_spin_rep():
    assert np.all(rotation_matrix(0.0) == np.eye(3))
    assert np.abs(spin_rep(0.0) - np.eye(2)).max() == 0.0
    assert np.abs(spin_rep(math.pi) - np.array([[0, -1], [1, 0]])).max() < 1e-15
    r = rotation_matrix(0.7)
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)
    assert np.abs(r @ r.T - np.eye(3)).max() < 1e-15
    d = spin_rep(0.7)
    assert abs(np.linalg.det(d) - 1.0) < 1e-14
    assert np.abs(d @ d.conj().T - np.eye(2)).max() < 1e-15


def test_spin_rep_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a, b = rng.uniform(-8, 8, 2)
        assert np.abs(spin_rep(a) @ spin_rep(b) - spin_rep(a + b)).max() < 1e-12


def test_spin_rep_covers_rotation_matrix():
    # adjoint action of the half-angle representation reproduces the SO(3) map
    theta = 0.7
    d = spin_rep(theta)
    sigma = [np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]], dtype=complex),
             np.array([[1, 0], [0, -1]], dtype=complex)]
    adjoint = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            adjoint[i, j] = 0.5 * np.trace(sigma[i] @ d @ sigma[j]
                                           @ d.conj().T).real
    assert np.abs(adjoint - rotation_matrix(theta)).max() < 1e-12


def test_product_integral_identity_and_errors():
    zero = np.zeros((3, 3))
    assert np.all(product_integral(lambda t: zero, 0.0, 2.0, 16) == np.eye(3))
    with pytest.raises(DomainError):
        product_integral(lambda t: zero, 0.0, 1.0, 0)
    bad = np.full((3, 3), np.nan)
    with pytest.raises(DomainError):
        product_integral(lambda t: bad, 0.0, 1.0, 4)


def test_product_integral_constant_rate_oracle():
    model = ChargedBlackHole(0.16)
    rate = wigner_rate_matrix(model, 1.6, 0.6, 0.3)
    tau = 2.0
    accumulated = product_integral(lambda t: rate, 0.0, tau, 10_000)
    assert np.abs(accumulated - rotation_matrix(rate[0, 2] * tau)).max() < 1e-8


def test_product_integral_second_order():
    # commuting time-dependent family with a closed-form answer
    gen = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    rate_fn = lambda t: (1.0 + t * t) * gen
    exact = rotation_matrix(4.0 / 3.0)
    errors = []
    for steps in (32, 64, 128):
        approx = product_integral(rate_fn, 0.0, 1.0, steps)
        errors.append(np.abs(approx - exact).max())
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert order1 >= 1.9
    assert order2 >= 1.9


@pytest.mark.parametrize("kind", ["rotation", "w13", "radial", "circular"])
def test_product_integral_step_matches_scipy_expm(kind):
    # one step is the closed-form exponential of each generator kind
    model = ChargedBlackHole(0.16)
    gen = {
        "rotation": np.array([[0.0, 0.3, -1.1], [-0.3, 0.0, 0.7], [1.1, -0.7, 0.0]]),
        "w13": wigner_rate_matrix(model, 1.6, 0.6, 0.3),
        "radial": lambda_radial(model, 2.5, 0.6)[0],
        "circular": lambda_circular(model, 2.5, 1.3),
    }[kind]
    for scale in (1e-4, 0.3, 2.0):
        exact = expm(scale * gen)
        step = product_integral(lambda t: gen, 0.0, scale, 1)
        assert np.abs(step - exact).max() <= 1e-14 * np.abs(exact).max()


def test_product_integral_rejects_non_planar_generator():
    # a boost along x with a rotation about x: m^3 != c m, no closed form
    gen = np.zeros((4, 4))
    gen[0, 1] = gen[1, 0] = 0.3
    gen[2, 3], gen[3, 2] = 0.5, -0.5
    with pytest.raises(DomainError, match="not planar"):
        product_integral(lambda t: gen, 0.0, 1.0, 4)


def test_product_integral_radial_path_is_pure_boost():
    model = ChargedBlackHole(0.0)
    rate_fn = lambda tau: lambda_radial(model, 4.0 - 0.5 * tau, 0.5)[0]
    lam = product_integral(rate_fn, 0.0, 3.0, 2000)
    # group element of the Lorentz group
    assert np.abs(lam @ ETA @ lam.T - ETA).max() < 1e-10
    # rotation part of the spatial block is trivial
    u, _ = polar(lam[1:, 1:])
    assert np.abs(u - np.eye(3)).max() < 1e-8


def test_schwarzschild_rate_features():
    assert schwarzschild_rate(1.5, 0.6, 0.0) == 0.0
    assert abs(schwarzschild_rate(1.0 + 1e-8, 1.0, 0.0)) > 1e3
    with pytest.raises(HorizonError):
        schwarzschild_rate(1.0, 0.6, 0.0)
    with pytest.raises(HorizonError):
        schwarzschild_rate(0.5, 0.6, 0.0)


def test_kruskal_rate_features():
    q, p = 0.7, 0.2
    expected = math.exp(-0.5) * momentum_factor(q, p)
    assert kruskal_rate(1.0, q, p) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(DomainError):
        kruskal_rate(0.0, q, p)
    with pytest.raises(DomainError):
        kruskal_rate(-2.0, q, p)
    # both columns decay with radius, the falling frame exponentially so
    assert abs(kruskal_rate(40.0, q, p)) < abs(kruskal_rate(10.0, q, p)) < abs(
        kruskal_rate(3.0, q, p))
    assert abs(kruskal_rate(40.0, q, p)) < 1e-6
    assert abs(schwarzschild_rate(40.0, q, p)) < abs(
        schwarzschild_rate(10.0, q, p)) < abs(schwarzschild_rate(3.0, q, p))


def test_momentum_factor_vectorized():
    p = np.linspace(-3, 3, 7)
    vals = momentum_factor(0.6, p)
    assert vals.shape == p.shape
    assert vals[3] == pytest.approx(momentum_factor(0.6, 0.0))
    # a column of q values against rows of momenta, as a batched sweep uses it
    q = np.array([-1.5, 0.0, 0.6, 7.0])
    grid = q[:, None] + p
    batched = momentum_factor(q[:, None], grid)
    assert batched.shape == grid.shape
    for i, qi in enumerate(q):
        assert np.array_equal(batched[i], momentum_factor(float(qi), grid[i]))


def test_theta_vanishes_only_on_the_zero_locus():
    # the bracket gamma - q p/(sqrt(p^2+1)+1) stays positive, so the angle
    # is zero for every p exactly when q = 0, tau = 0 or z is a root radius
    rng = np.random.default_rng(9)
    for _ in range(60):
        q = float(rng.uniform(-8, 8))
        p = float(rng.uniform(-50, 50))
        if q == 0.0:
            continue
        assert momentum_factor(q, p) != 0.0
        assert np.sign(momentum_factor(q, p)) == np.sign(q)
    params = OrbitParams(0.16, 2.0, 0.7, 1.0, 3.0)  # generic point
    assert all(theta_circular(params, p) != 0.0 for p in (-2.0, 0.0, 1.0, 9.0))
