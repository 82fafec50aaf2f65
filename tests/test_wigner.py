import itertools
import math
import re

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
    binary_entropy,
    circular_orbit_state,
    figure_preset,
    kruskal_rate,
    lambda_circular,
    lambda_radial,
    metric_matrix,
    metric_potentials,
    momentum_factor,
    product_integral,
    rotation_matrix,
    spin_rep,
    tetrad_static,
    theta_circular,
    theta_zeros,
    wigner_rate,
    wigner_rate_matrix,
    wigner_rate_w13,
)
from gravent.experiments import _sweep_rows
from gravent import wigner
from gravent.roots import DOMAIN_CHECKS, MAX_RADIUS, check_domain, outer_horizon
from gravent.wigner import _STEP_BLOCK, _expm_planar, radial_factor

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
    assert _sweep_rows(spec, [1e17], False)[0].flags == ("domain",)


def test_orbit_params_bound_the_radius():
    # from z ~ 5.6e102 on, 2 z^2 sqrt(z^2 - z + xi2) overflows and the
    # amplitude would be nan; up to MAX_RADIUS every intermediate is finite
    OrbitParams(0.16, MAX_RADIUS, 0.6, 1.0, 5.0)
    for z in (1.0000001e100, 1e103, 1e160):
        with pytest.raises(DomainError, match=r"orbit radius must be <= 1e\+100"):
            OrbitParams(0.16, z, 0.6, 1.0, 5.0)
    assert _sweep_rows(figure_preset(4), [1e160], False)[0].flags == ("domain",)
    row = _sweep_rows(figure_preset(4), [1e99], False)[0]
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
    ((0.16, 0.5, 0.6, 1e-200, -1.0), DomainError, r"beta must be >= 1e-150, got 1e-200"),
])
def test_orbit_params_report_the_first_failing_check(values, error, message):
    # with several checks failing, the one OrbitParams makes first is raised
    with pytest.raises(error, match=message):
        OrbitParams(*values)


def test_orbit_params_bound_the_width():
    # the quadrature's momenta reach |q| + 7 beta; at beta = 1e300 p * p
    # overflowed in M(q, p)
    OrbitParams(0.0, 2.0, 0.6, 1e8, 5.0)
    for beta in (1.0000001e8, 1e300):
        with pytest.raises(DomainError, match=r"beta must be <= 1e\+08"):
            OrbitParams(0.0, 2.0, 0.6, beta, 5.0)


def test_check_domain_names_the_first_element_at_fault():
    check_domain({"z": np.array([1.0, 2.0]), "q": 0.5})
    with pytest.raises(DomainError, match=r"^orbit radius must be positive, got z=-2\.0$"):
        check_domain({"z": np.array([1.0, -2.0, -3.0, 0.0])})
    # a finiteness entry comes before every bound, whatever the order of the array
    with pytest.raises(DomainError, match=r"^r must be finite, got nan$"):
        check_domain({"z": np.array([-1.0, math.nan])}, {"z": "r"})
    with pytest.raises(DomainError, match=r"^\|p\| must be <= 1e\+08, got p=1e\+200$"):
        check_domain({"q": 1e200}, {"q": "p"})


def _walk_the_whole_table(values, names=None):
    """The reference: every entry of DOMAIN_CHECKS, in order, run for the fields given."""
    for field, valid, message in DOMAIN_CHECKS:
        if field in values:
            value = values[field]
            try:
                ok = valid(value)
            except TypeError:
                ok, message = False, "{name} must be a number, got {value!r}"
            if getattr(ok, "ndim", 0):
                if ok.all():
                    continue
                ok, value = False, value.flat[ok.argmin()]
            if not ok:
                raise DomainError(message.format(name=(names or {}).get(field, field), value=value))


def _message(check, values, names=None):
    try:
        check(values, names)
    except Exception as exc:  # an array where text belongs raises ValueError from both
        return f"{type(exc).__name__}: {exc}"
    return None


def test_check_domain_raises_what_a_walk_of_the_whole_table_raises():
    # check_domain looks up the entries of the fields it is given; for every
    # pair of fields, each given values that fail some of its entries, in
    # either order, the first failing entry and its message are the walk's
    failing = [math.nan, math.inf, -1.0, 0.0, 0.5, 1.5, 1e-200, 1e200, 3, "text", None,
               np.array([1.0, -2.0, math.nan])]
    fields = list(dict.fromkeys(field for field, _, _ in DOMAIN_CHECKS))
    compared = 0
    for first, second in itertools.permutations(fields, 2):
        for a, b in itertools.product(failing, repeat=2):
            values = {first: a, second: b}
            expected = _message(_walk_the_whole_table, values)
            assert _message(check_domain, values) == expected, values
            compared += expected is not None
    assert compared > 0.8 * len(fields) * (len(fields) - 1) * len(failing) ** 2
    # a field no entry knows is passed over, and names renames in the message
    values, names = {"nothing": math.nan, "beta": -1.0, "z": 0.5}, {"beta": "width"}
    assert _message(check_domain, values, names) == _message(_walk_the_whole_table, values, names)
    assert _message(check_domain, values, names) == "DomainError: width must be positive, got -1.0"


@pytest.mark.parametrize("values, message", [
    ({"count": "3"}, "count must be a number, got '3'"),
    ({"xi2": "0.1"}, "xi2 must be a number, got '0.1'"),
    ({"z": None}, "z must be a number, got None"),
], ids=["count", "xi2", "z"])
def test_check_domain_calls_what_is_not_a_number_a_domain_error(values, message):
    # each raised a bare TypeError from a comparison or abs()
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        check_domain(values)


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
    _, b, a_prime = metric_potentials(model, 1.6)
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
    _, b, a_prime = metric_potentials(model, 1.6)
    fac = math.exp(-b) * (a_prime - 1.0 / 1.6)
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


def _generator_from_the_metric(model, z, q, flip=1.0):
    """Terashima & Ueda's lambda^a_b of the circular orbit, from the metric alone.

    Christoffel symbols of metric_matrix by central differences (h = 1e-5)
    at theta = pi/2; the orbit's four-velocity u = e_a k^a with k = (gamma,
    0, 0, q), its acceleration a^mu = Gamma^mu_{nu lam} u^nu u^lam (u's
    components are constant along the circle), and the static tetrad's
    connection chi^a_b = -u^mu e^a_nu Gamma^nu_{mu lam} e_b^lam (the tetrad
    depends on z and theta only, along which u has no component).  Then
    lambda = -flip (a k - k a) + chi with m = 1; flip = -1 is the control.
    """
    h, theta = 1e-5, 0.5 * math.pi
    g = metric_matrix(model, z, theta)
    dg = np.zeros((4, 4, 4))  # dg[m] = d g / d x^m, x = (t, z, theta, phi)
    dg[1] = (metric_matrix(model, z + h, theta) - metric_matrix(model, z - h, theta)) / (2 * h)
    dg[2] = (metric_matrix(model, z, theta + h) - metric_matrix(model, z, theta - h)) / (2 * h)
    # Gamma^n_{ml} = 1/2 g^{nr} (d_m g_{rl} + d_l g_{rm} - d_r g_{ml})
    gamma_ = 0.5 * np.einsum("nr,rml->nml", np.linalg.inv(g),
                             dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg)
    e = tetrad_static(model, z, theta).as_matrix()  # e[mu, a] = e_a^mu
    e_inv = np.linalg.inv(e)
    k = np.array([math.hypot(q, 1.0), 0.0, 0.0, q])
    u = e @ k
    accel = e_inv @ np.einsum("mnl,n,l->m", gamma_, u, u)
    chi = -e_inv @ np.einsum("nml,m->nl", gamma_, u) @ e
    return -flip * (np.outer(accel, ETA @ k) - np.outer(k, ETA @ accel)) + chi


# (xi2, z, q): a two-horizon hole, two naked singularities and the uncharged
# hole, with momenta of either sign
METRIC_ORBITS = ((0.16, 1.6, 0.6), (0.265, 2.0, -1.3), (0.5, 0.9, 3.0), (0.0, 4.0, 0.2))


@pytest.mark.parametrize("xi2, z, q", METRIC_ORBITS)
def test_wigner_rate_follows_from_the_metric(xi2, z, q):
    # the rate theta^1_3 of a particle of momentum k = (sqrt(p^2 + 1), 0, 0, p)
    model = ChargedBlackHole(xi2)
    ps = np.array([-2.0, 0.0, 0.6, 3.0])
    rate = wigner_rate_w13(model, z, q, ps)

    def w13(lam):
        return np.array([wigner_rate(lam, (0.0, 0.0, p))[0, 2] for p in ps.tolist()])

    lam = _generator_from_the_metric(model, z, q)
    closed = lambda_circular(model, z, q)
    assert np.abs(lam - closed).max() <= 1e-9 * np.abs(closed).max()
    assert np.all(np.abs(w13(lam) - rate) <= 1e-9 * np.abs(rate))
    flipped = w13(_generator_from_the_metric(model, z, q, flip=-1.0))
    assert np.all(np.abs(flipped - rate) > 1e-3 * np.abs(rate))


@pytest.mark.parametrize("xi2, z, q", METRIC_ORBITS)
def test_wigner_rate_matrix_is_the_closed_form_rate(xi2, z, q):
    # the general formula on the circular generator against R(z) M(q, p)
    model = ChargedBlackHole(xi2)
    for p in (-2.0, 0.0, 0.6, 3.0):
        w = wigner_rate_matrix(model, z, q, p)
        w13 = wigner_rate_w13(model, z, q, p)
        assert abs(w[0, 2] - w13) <= 1e-14 * abs(w13)
        assert np.all(np.delete(w.ravel(), [2, 6]) == 0.0)
        assert np.all(w == -w.T)


def test_radial_rate_vanishes_exactly_along_the_fall():
    # along the fall the two boost terms of wigner_rate cancel bit for bit;
    # across it theta^1_3 = lam^1_0 p^3 / (k^0 + 1) remains
    rng = np.random.default_rng(21)
    for _ in range(200):
        xi2 = float(rng.uniform(0.0, 0.6))
        z = (outer_horizon(xi2) or 0.0) + float(rng.uniform(0.05, 20.0))
        v, p = float(rng.uniform(-0.99, 0.99)), float(rng.uniform(-50.0, 50.0))
        lam = lambda_radial(ChargedBlackHole(xi2), z, v)
        along = wigner_rate(lam, (p, 0.0, 0.0))
        assert np.all(along == 0.0) and not np.signbit(along).any()
        across = wigner_rate(lam, (0.0, 0.0, p))
        assert across[0, 2] == lam[1, 0] * p / (math.sqrt(p * p + 1.0) + 1.0) != 0.0
        assert np.all(across == -across.T)


def test_wigner_rate_values():
    model = ChargedBlackHole(0.16)
    assert wigner_rate_w13(model, 1.6, 0.0, 0.3) == 0.0
    for p in (-5.0, 0.0, 0.6, 12.0):
        assert abs(wigner_rate_w13(model, Z1_016, 0.6, p)) < 1e-12
    # momentum factor at p=q collapses to q*gamma
    for q in (-3.0, 0.25, 1.7):
        assert momentum_factor(q, q) == pytest.approx(q * math.hypot(q, 1.0),
                                                      rel=1e-14)


def test_rate_matches_schwarzschild_closed_form():
    # the uncharged hole's static-frame rate (1 - 3/(2r)) / (r sqrt(1 - 1/r)) M(q, p)
    model = ChargedBlackHole(0.0)
    for r in (1.2, 1.5, 3.0, 20.0):
        for q, p in ((0.6, 0.0), (1.3, -0.4)):
            closed = (1.0 - 1.5 / r) / (r * math.sqrt(1.0 - 1.0 / r)) * momentum_factor(q, p)
            assert wigner_rate_w13(model, r, q, p) == pytest.approx(closed, rel=1e-12, abs=1e-15)


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
    lam = lambda_radial(model, 3.0, 0.5)
    gamma = 1.0 / math.sqrt(1.0 - 0.25)
    _, b, a_prime = metric_potentials(model, 3.0)
    expected = -gamma * a_prime * math.exp(-b)
    assert lam[0, 1] == pytest.approx(expected, rel=1e-14)
    assert lam[1, 0] == lam[0, 1]
    assert (lam != 0.0).sum() == 2
    # v=0 limit
    lam0 = lambda_radial(model, 3.0, 0.0)
    assert lam0[0, 1] == pytest.approx(-a_prime * math.exp(-b), rel=1e-14)
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


def test_spin_rep_of_an_array_is_the_stack_of_its_scalar_calls():
    angles = np.concatenate([np.random.default_rng(11).uniform(-8, 8, 40),
                             [0.0, -0.0, 4 * math.pi, -4 * math.pi, 1e6]])
    stack = spin_rep(angles.reshape(5, 9))
    assert stack.shape == (5, 9, 2, 2) and stack.dtype == complex
    for theta, d in zip(angles.tolist(), stack.reshape(-1, 2, 2)):
        c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)  # the scalar formula
        assert d.tobytes() == spin_rep(theta).tobytes()
        assert d.tobytes() == np.array([[c, -s], [s, c]], dtype=complex).tobytes()
    with pytest.raises(DomainError, match=r"^theta must be finite, got nan$"):
        spin_rep(np.array([0.3, math.nan]))


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
        "radial": lambda_radial(model, 2.5, 0.6),
        "circular": lambda_circular(model, 2.5, 1.3),
    }[kind]
    for scale in (1e-4, 0.3, 2.0):
        exact = expm(scale * gen)
        step = product_integral(lambda t: gen, 0.0, scale, 1)
        assert np.abs(step - exact).max() <= 1e-14 * np.abs(exact).max()


@pytest.mark.parametrize("steps", [1, 2, 3, 5, _STEP_BLOCK, _STEP_BLOCK + 1, 10_000])
def test_product_integral_orders_non_commuting_factors_in_time(steps):
    # the circular-orbit generator with a swept momentum mixes the 0-1 boost
    # and the 1-3 rotation in a ratio that changes along the path, so factors
    # of different steps do not commute; the product must be the left fold
    # of the same factors, later times leftmost, across _STEP_BLOCK as well
    model = ChargedBlackHole(0.16)
    rate_fn = lambda tau: lambda_circular(model, 2.5, 0.2 + 0.8 * tau)
    tau_f = 1.5
    dtau = tau_f / steps
    factors = _expm_planar(np.array([rate_fn((k + 0.5) * dtau) for k in range(steps)]) * dtau)
    later_left = earlier_left = np.eye(4)
    for step in factors:
        later_left = step @ later_left
        earlier_left = earlier_left @ step
    got = product_integral(rate_fn, 0.0, tau_f, steps)
    scale = np.abs(later_left).max()
    assert np.abs(got - later_left).max() <= 1e-12 * scale
    if steps > 1:  # the negative control: the reversed order misses by far more
        assert np.abs(earlier_left - later_left).max() > 1e-6 * scale


def test_product_integral_rejects_non_planar_generator():
    # a boost along x with a rotation about x: m^3 != c m, no closed form;
    # the rate is constant, so each block exponentiates it once, and still raises
    gen = np.zeros((4, 4))
    gen[0, 1] = gen[1, 0] = 0.3
    gen[2, 3], gen[3, 2] = 0.5, -0.5
    for steps in (1, 4, _STEP_BLOCK + 1):
        with pytest.raises(DomainError, match="not planar"):
            product_integral(lambda t: gen, 0.0, 1.0, steps)


_PLANAR_KINDS = {
    "antisymmetric": np.array([[0.0, 0.3, -1.1], [-0.3, 0.0, 0.7], [1.1, -0.7, 0.0]]),
    "radial": lambda_radial(ChargedBlackHole(0.16), 2.5, 0.6),
    "circular": lambda_circular(ChargedBlackHole(0.16), 2.5, 1.3),
}


@pytest.mark.parametrize("kind", sorted(_PLANAR_KINDS))
def test_expm_planar_of_equal_generators_is_the_single_exponential_bit_for_bit(kind):
    # a constant rate's block exponentiates one generator and repeats it, so
    # the stack must give every row the bits of that single exponential
    for scale in (1e-4, 0.3, 2.0):
        gen = _PLANAR_KINDS[kind] * scale
        one = _expm_planar(gen[None])[0]
        for k in (2, 7, _STEP_BLOCK):
            stack = _expm_planar(np.repeat(gen[None], k, axis=0))
            assert all(row.tobytes() == one.tobytes() for row in stack), (scale, k)


def _per_step_product(rate_fn, tau_i, tau_f, steps):
    # every step's rate exponentiated in one stack, blocks of _STEP_BLOCK
    # multiplied pairwise, later factor of a pair on the left
    dtau = (tau_f - tau_i) / steps
    acc = None
    for start in range(0, steps, _STEP_BLOCK):
        ks = range(start, min(start + _STEP_BLOCK, steps))
        factors = _expm_planar(np.array([rate_fn(tau_i + (k + 0.5) * dtau) for k in ks]) * dtau)
        while len(factors) > 1:
            paired = factors[1::2] @ factors[:len(factors) - 1:2]
            factors = np.concatenate([paired, factors[-1:]]) if len(factors) % 2 else paired
        acc = factors[0] if acc is None else factors[0] @ acc
    return acc


def _exponentiated(monkeypatch):
    # the size of every stack product_integral hands to _expm_planar
    sizes = []

    def recording(m):
        sizes.append(len(m))
        return _expm_planar(m)

    monkeypatch.setattr(wigner, "_expm_planar", recording)
    return sizes


@pytest.mark.parametrize("steps", [1, 2, _STEP_BLOCK - 1, _STEP_BLOCK, _STEP_BLOCK + 1, 10_000])
def test_product_integral_of_a_constant_rate_keeps_the_per_step_bits(steps, monkeypatch):
    model = ChargedBlackHole(0.16)
    rates = [wigner_rate_matrix(model, 1.6, 0.6, 0.3), lambda_circular(model, 2.5, 1.3),
             lambda_radial(model, 6.0, 0.4)]
    sizes = _exponentiated(monkeypatch)
    for rate in rates:
        got = product_integral(lambda t: rate, 0.0, 2.0, steps)
        assert got.tobytes() == _per_step_product(lambda t: rate, 0.0, 2.0, steps).tobytes()
        assert got.flags.writeable  # the caller's own array, as for any other rate
    assert sizes == [1] * (len(rates) * -(-steps // _STEP_BLOCK))  # one exponential per block


@pytest.mark.parametrize("steps", [2, _STEP_BLOCK + 1])
def test_product_integral_tells_signed_zeros_apart(steps, monkeypatch):
    # equal in value but not in bits: a block mixing +0.0 and -0.0 is not
    # constant, so each of its steps is exponentiated from its own zeros
    def rate_fn(tau):
        zero = 0.0 if tau < 0.75 else -0.0
        return np.array([[zero, 0.4, -zero], [-0.4, -zero, zero], [zero, -zero, zero]])

    sizes = _exponentiated(monkeypatch)
    got = product_integral(rate_fn, 0.0, 1.0, steps)
    assert sizes == ([steps] if steps == 2 else [_STEP_BLOCK, 1])  # the last block is all -0.0
    assert got.tobytes() == _per_step_product(rate_fn, 0.0, 1.0, steps).tobytes()


def _signed_zero_rate(tau):
    # the rate of test_product_integral_tells_signed_zeros_apart: +0.0 entries
    # before tau = 0.75 and -0.0 after, so a block that straddles it is not constant
    zero = 0.0 if tau < 0.75 else -0.0
    return np.array([[zero, 0.4, -zero], [-0.4, -zero, zero], [zero, -zero, zero]])


_RATE_FNS = {
    "w13": lambda tau: wigner_rate_matrix(ChargedBlackHole(0.16), 1.6, 0.6, 0.3),
    "signed-zero": _signed_zero_rate,
    "circular-swept": lambda tau: lambda_circular(ChargedBlackHole(0.16), 2.5, 0.2 + 0.8 * tau),
}


@pytest.mark.parametrize("steps", [1, 2, 3, 5, _STEP_BLOCK - 1, _STEP_BLOCK, _STEP_BLOCK + 1,
                                   10_000])
@pytest.mark.parametrize("kind", sorted(_RATE_FNS))
def test_product_integral_of_a_matrix_or_a_stack_keeps_the_callables_bits(kind, steps):
    # the callable, and the stack of its rates at the midpoints _per_step_product takes
    rate_fn = _RATE_FNS[kind]
    want = _per_step_product(rate_fn, 0.0, 1.0, steps)
    stack = np.array([rate_fn(0.0 + (k + 0.5) * (1.0 / steps)) for k in range(steps)])
    assert product_integral(rate_fn, 0.0, 1.0, steps).tobytes() == want.tobytes()
    assert product_integral(stack, 0.0, 1.0, steps).tobytes() == want.tobytes()
    for rate in (rate_fn(0.0), rate_fn(1.0)):  # a constant rate given once, -0.0 entries too
        assert product_integral(rate, 0.0, 1.0, steps).tobytes() == \
            _per_step_product(lambda tau: rate, 0.0, 1.0, steps).tobytes()


def test_product_integral_exponentiates_a_matrix_once_per_block(monkeypatch):
    sizes = _exponentiated(monkeypatch)
    rate = wigner_rate_matrix(ChargedBlackHole(0.16), 1.6, 0.6, 0.3)
    product_integral(rate, 0.0, 2.0, 10_000)
    assert sizes == [1, 1, 1]


@pytest.mark.parametrize("shape", [(), (3,), (3, 4), (4, 3, 3), (2, 5, 3, 3)])
def test_product_integral_rejects_rates_of_another_shape(shape):
    with pytest.raises(DomainError, match="rates must be a square matrix or one per step"):
        product_integral(np.zeros(shape), 0.0, 1.0, 5)


def test_product_integral_names_the_first_non_finite_rate_of_a_stack():
    stack = np.zeros((_STEP_BLOCK + 10, 3, 3))
    stack[_STEP_BLOCK + 3, 0, 2] = math.inf
    with pytest.raises(DomainError, match=f"^non-finite rate at step {_STEP_BLOCK + 3}$"):
        product_integral(stack, 0.0, 1.0, len(stack))


def test_radial_rates_of_an_array_of_radii_keep_the_scalar_bits():
    # the radial check's 256 midpoints, and a momentum across the fall so
    # that the rates are not all zero
    model = ChargedBlackHole(0.0)
    radii = 6.0 - 0.4 * wigner._midpoints(0.0, 5.0, 256)
    assert radii.tolist() == [6.0 - 0.4 * (0.0 + (k + 0.5) * (5.0 / 256)) for k in range(256)]
    for p in ((0.6, 0.0, 0.0), (0.0, 0.0, 0.6), (0.3, -0.2, 0.5)):
        stack = wigner_rate(lambda_radial(model, radii, 0.4), p)
        one = np.array([wigner_rate(lambda_radial(model, r, 0.4), p) for r in radii.tolist()])
        assert stack.shape == (256, 3, 3) and stack.tobytes() == one.tobytes()
    for xi2 in (0.0, 0.16, 0.5):  # the potentials too, log and all
        model = ChargedBlackHole(xi2)
        arrays = np.array(metric_potentials(model, radii))
        assert arrays.T.tolist() == [list(metric_potentials(model, r)) for r in radii.tolist()]


def test_product_integral_radial_path_is_pure_boost():
    model = ChargedBlackHole(0.0)
    rate_fn = lambda tau: lambda_radial(model, 4.0 - 0.5 * tau, 0.5)
    lam = product_integral(rate_fn, 0.0, 3.0, 2000)
    # group element of the Lorentz group
    assert np.abs(lam @ ETA @ lam.T - ETA).max() < 1e-10
    # rotation part of the spatial block is trivial
    u, _ = polar(lam[1:, 1:])
    assert np.abs(u - np.eye(3)).max() < 1e-8


def test_schwarzschild_rate_features():
    # the static-frame rate of the uncharged hole
    model = ChargedBlackHole(0.0)
    assert wigner_rate_w13(model, 1.5, 0.6, 0.0) == 0.0
    assert abs(wigner_rate_w13(model, 1.0 + 1e-8, 1.0, 0.0)) > 1e3
    with pytest.raises(HorizonError):
        wigner_rate_w13(model, 1.0, 0.6, 0.0)
    with pytest.raises(HorizonError):
        wigner_rate_w13(model, 0.5, 0.6, 0.0)


@pytest.mark.parametrize("z", [math.nan, math.inf, -1.0, 0.0, 2 * MAX_RADIUS])
def test_circular_rates_reject_radii_outside_the_orbit_domain(z):
    # they read the radial factor through the orbit checks of Theta
    model = ChargedBlackHole(0.5)
    for call in (lambda: lambda_circular(model, z, 0.6),
                 lambda: wigner_rate_w13(model, z, 0.6, 0.3),
                 lambda: wigner_rate_matrix(model, z, 0.6, 0.3)):
        with pytest.raises(DomainError, match="^(z must be|orbit radius)"):
            call()


def test_circular_rates_are_minus_the_radial_factor():
    # e^{-B} (A' - 1/z) = -R(z): the generator and the rate read R(z) itself
    for xi2, z in ((0.0, 2.5), (0.16, 1.6), (0.265, 0.7), (0.5, 4.0)):
        model, (factor, _) = ChargedBlackHole(xi2), radial_factor(z, xi2)
        q = 0.6
        lam = lambda_circular(model, z, q)
        assert lam[0, 1] == -math.sqrt(q * q + 1.0) * q * q * factor
        assert lam[1, 3] == q * (q * q + 1.0) * factor
        assert wigner_rate_w13(model, z, q, -1.2) == factor * momentum_factor(q, -1.2)
    # no circle inside the outer horizon, though e^{2A} > 0 below the inner one
    with pytest.raises(HorizonError):
        lambda_circular(ChargedBlackHole(0.16), 0.1, 0.6)


def test_kruskal_rate_features():
    q, p = 0.7, 0.2
    expected = math.exp(-0.5) * momentum_factor(q, p)
    assert kruskal_rate(1.0, q, p) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(DomainError):
        kruskal_rate(0.0, q, p)
    with pytest.raises(DomainError):
        kruskal_rate(-2.0, q, p)
    for r in (math.nan, math.inf):
        with pytest.raises(DomainError, match="^radius must be positive"):
            kruskal_rate(r, q, p)
    # the prefactor 0.75 r^{-3/2} overflows below r ~ 4e-206
    assert 1e300 < kruskal_rate(1e-200, 1.0, 0.0) < math.inf
    for r in (1e-210, 1e-320):
        with pytest.raises(DomainError, match=rf"^falling-frame rate at r={r} is not a finite"):
            kruskal_rate(r, 1.0, 0.0)
    # both columns decay with radius, the falling frame exponentially so
    assert abs(kruskal_rate(40.0, q, p)) < abs(kruskal_rate(10.0, q, p)) < abs(
        kruskal_rate(3.0, q, p))
    assert abs(kruskal_rate(40.0, q, p)) < 1e-6
    static = [abs(wigner_rate_w13(ChargedBlackHole(0.0), r, q, p)) for r in (40.0, 10.0, 3.0)]
    assert static == sorted(static)


def test_kruskal_rate_keeps_its_digits_at_large_radii():
    # sqrt(e^{-r}/r) went subnormal from r ~ 702 and was exactly 0.0 from
    # r ~ 739; e^{-r/2}/sqrt(r) times (3 + r)/(4r) stays normal up to
    # r ~ 1,400, where the rate matches 60-digit decimal to a few ulps
    from decimal import Decimal, localcontext

    assert kruskal_rate(740.0, 1.0, 0.0) == pytest.approx(3.777e-163, rel=1e-3)
    rng = np.random.default_rng(5)
    radii = np.concatenate([[700.0, 737.0, 740.0, 1000.0, 1400.0], rng.uniform(1.0, 1400.0, 40),
                            10.0 ** rng.uniform(-3.0, 2.0, 20)])
    for r in radii.tolist():
        q, p = 1.0, 0.3
        factor = Decimal(float(momentum_factor(q, p)))  # the same factor, exactly
        with localcontext() as ctx:
            ctx.prec = 60
            big = Decimal(r)
            exact = Decimal("0.25") / big * ((-big).exp() / big).sqrt() * (3 + big) * factor
        got = kruskal_rate(r, q, p)
        assert abs(Decimal(got) - exact) <= 8 * Decimal(math.ulp(float(exact))), r


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


_MODEL = ChargedBlackHole(0.16)

# Each exported function that takes a float of the physical domain, with
# valid arguments and the positions of its float arguments.
FLOAT_ARGUMENTS = {
    "circular_orbit_state": (circular_orbit_state, (_MODEL, 2.0, 0.6), (1, 2)),
    "lambda_circular": (lambda_circular, (_MODEL, 2.0, 0.6), (1, 2)),
    "wigner_rate_w13": (wigner_rate_w13, (_MODEL, 2.0, 0.6, 0.3), (1, 2, 3)),
    "wigner_rate_matrix": (wigner_rate_matrix, (_MODEL, 2.0, 0.6, 0.3), (1, 2, 3)),
    # each component of the particle's momentum
    "wigner_rate": (lambda p1, p2, p3: wigner_rate(lambda_circular(_MODEL, 2.0, 0.6),
                                                   (p1, p2, p3)), (0.1, -0.2, 0.3), (0, 1, 2)),
    "kruskal_rate": (kruskal_rate, (2.0, 0.6, 0.3), (0, 1, 2)),
    "theta_circular": (theta_circular, (OrbitParams(0.16, 2.0, 0.6, 1.0, 5.0), 0.3), (1,)),
    "lambda_radial": (lambda_radial, (_MODEL, 2.0, 0.4), (1, 2)),
    "product_integral": (product_integral, (lambda tau: np.zeros((3, 3)), 0.0, 1.0, 4),
                         (1, 2)),
    "rotation_matrix": (rotation_matrix, (0.7,), (0,)),
    "spin_rep": (spin_rep, (0.7,), (0,)),
    "tetrad_static": (tetrad_static, (_MODEL, 2.0, 1.0), (1, 2)),
    "metric_matrix": (metric_matrix, (_MODEL, 2.0, 1.0), (1, 2)),
    "binary_entropy": (binary_entropy, (0.3,), (0,)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(FLOAT_ARGUMENTS))
def test_every_float_argument_rejects_non_finite_values(name, value):
    # each went through as nan or inf, or raised a bare ValueError, before
    # its argument had an entry in DOMAIN_CHECKS
    fn, args, floats = FLOAT_ARGUMENTS[name]
    fn(*args)
    for i in floats:
        with pytest.raises(DomainError):
            fn(*args[:i], value, *args[i + 1:])


def test_checked_functions_still_take_sequences():
    # the checks run on the array a list becomes, as the formulas always did
    model = ChargedBlackHole(0.16)
    ps = [-1.0, 0.3, 2.0]
    assert (wigner_rate_w13(model, 2.0, 0.6, ps) == wigner_rate_w13(model, 2.0, 0.6,
                                                                    np.array(ps))).all()
    assert (binary_entropy([0.0, 0.2, 1.0]) == binary_entropy(np.array([0.0, 0.2, 1.0]))).all()
    with pytest.raises(DomainError, match=r"^p must be finite, got inf$"):
        kruskal_rate(2.0, 0.6, [0.3, math.inf])
