import math

import numpy as np
import pytest

from gravent import (
    ChargedBlackHole,
    DomainError,
    ETA,
    HorizonError,
    circular_orbit_state,
    frame_transform_matrix,
    horizons,
    kruskal_map,
    kruskal_radius,
    lambda_radial,
    metric_matrix,
    metric_potentials,
    outer_horizon,
    tetrad_static,
)


def test_charged_hole_closed_form():
    model = ChargedBlackHole(0.16)
    a, b, a_prime = metric_potentials(model, 1.6)
    assert math.exp(2 * a) == pytest.approx(0.4375, abs=1e-15)
    assert b == -a
    # analytic derivative of 0.5 log(1 - 1/z + xi2/z^2)
    g = 0.4375
    gp = 1 / 1.6**2 - 2 * 0.16 / 1.6**3
    assert a_prime == pytest.approx(0.5 * gp / g, rel=1e-14)


def test_analytic_derivatives_match_finite_differences():
    # derivatives are analytic in the library; difference quotients live here
    h = 1e-6
    for xi2 in (0.0, 0.16, 0.5):
        model = ChargedBlackHole(xi2)
        floor = (outer_horizon(xi2) or 0.0) + 0.3
        for z in np.linspace(floor, 8.0, 7).tolist():
            (a_hi, b_hi, _), (a_lo, b_lo, _) = (metric_potentials(model, z + h),
                                                metric_potentials(model, z - h))
            _, _, a_prime = metric_potentials(model, z)
            assert a_prime == pytest.approx((a_hi - a_lo) / (2 * h), abs=1e-7)
            # B = -A, so B' = -A'
            assert -a_prime == pytest.approx((b_hi - b_lo) / (2 * h), abs=1e-7)


def test_negative_charge_rejected():
    with pytest.raises(DomainError):
        ChargedBlackHole(-0.1)
    with pytest.raises(DomainError):
        horizons(-1e-9)


@pytest.mark.parametrize("xi2", [math.nan, math.inf])
def test_non_finite_charge_rejected(xi2):
    # the hole takes the charges horizons takes
    with pytest.raises(DomainError, match="xi2 must be finite"):
        ChargedBlackHole(xi2)
    with pytest.raises(DomainError, match="xi2 must be finite"):
        horizons(xi2)


def test_domain_error_at_nonpositive_radius():
    model = ChargedBlackHole(0.0)
    for z in (0.0, -2.0):
        with pytest.raises(DomainError):
            metric_potentials(model, z)


def test_horizon_errors_on_and_inside():
    # double root of the quadratic: e^{2A}(0.5) = 1 - 2 + 1 = 0
    with pytest.raises(HorizonError):
        metric_potentials(ChargedBlackHole(0.25), 0.5)
    with pytest.raises(HorizonError):
        metric_potentials(ChargedBlackHole(0.16), 0.8)
    # between the horizons e^{2A} < 0
    with pytest.raises(HorizonError):
        metric_potentials(ChargedBlackHole(0.16), 0.5)


# Radii below which 1/z^2 - 2 xi2/z^3 (xi2 > 0) or 1/z^2 (xi2 = 0) is no finite
# float, down to the smallest subnormal; inside e^{2A} = 1 - 1/z + xi2/z^2 is
# positive and huge for xi2 > 0 (no horizon, but no finite A') and negative
# for xi2 = 0 (inside the horizon)
_TINY_RADII = (1e-103, 1e-108, 1e-155, 1e-165, 1e-200, 1e-300, 5e-324)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", _TINY_RADII)
def test_metric_potentials_at_tiny_radii_raise_what_the_value_dictates(z):
    with pytest.raises(DomainError, match=r"too near the singularity of charged black hole "
                                          r"\(xi2=0\.16\)"):
        metric_potentials(ChargedBlackHole(0.16), z)
    with pytest.raises(HorizonError, match=r"on or inside a horizon of charged black hole "
                                           r"\(xi2=0\.0\)"):
        metric_potentials(ChargedBlackHole(0.0), z)
    # the same from an array, whose first radius at fault is named
    for xi2, error in ((0.16, DomainError), (0.0, HorizonError)):
        with pytest.raises(error, match=f"^z={z!r} is "):
            metric_potentials(ChargedBlackHole(xi2), np.array([2.0, z, 1e-50]))
        with pytest.raises(error):
            lambda_radial(ChargedBlackHole(xi2), np.array([3.0, z]), 0.4)


@pytest.mark.filterwarnings("error")
def test_metric_potentials_stay_finite_down_to_the_overflow():
    # A' ~ -1/z near z = 0 for xi2 > 0, while g' = 1/z^2 - 2 xi2/z^3 is finite
    for z in (1e-50, 1e-100):
        a, b, a_prime = metric_potentials(ChargedBlackHole(0.16), z)
        assert all(map(math.isfinite, (a, b, a_prime))) and a == -b
        assert a_prime == pytest.approx(-1.0 / z, rel=1e-6)
        arrays = metric_potentials(ChargedBlackHole(0.16), np.array([z]))
        assert [float(x[0]) for x in arrays] == [a, b, a_prime]


def test_asymptotic_flatness_of_builtin_models():
    for xi2 in (0.0, 0.16, 0.25, 0.5):
        a, b, _ = metric_potentials(ChargedBlackHole(xi2), 1e6)
        assert abs(a) < 1e-3
        assert abs(b) < 1e-3


def test_horizons_values():
    zm, zp = horizons(0.16)
    assert zm == pytest.approx(0.2, abs=1e-12)
    assert zp == pytest.approx(0.8, abs=1e-12)
    assert horizons(0.25) == [0.5]
    assert horizons(0.5) == []
    assert horizons(0.0) == [0.0, 1.0]
    assert outer_horizon(0.16) == zp
    assert outer_horizon(0.3) is None


def test_tetrad_static_values():
    # flat limit at large radius
    t = tetrad_static(ChargedBlackHole(0.0), 1e6, math.pi / 2)
    assert t.e0t == pytest.approx(1.0, abs=1e-3)
    assert t.e1r == pytest.approx(1.0, abs=1e-3)
    assert t.e2theta == pytest.approx(1e-6, rel=1e-12)
    # uncharged hole at z=2: orthonormality forces e1r = e^{-B} = sqrt(1 - 1/2)
    t = tetrad_static(ChargedBlackHole(0.0), 2.0, math.pi / 2)
    assert t.e1r == pytest.approx(math.sqrt(0.5), rel=1e-14)
    assert t.e0t == pytest.approx(math.sqrt(2.0), rel=1e-14)
    with pytest.raises(HorizonError):
        tetrad_static(ChargedBlackHole(0.16), 0.8, math.pi / 2)
    with pytest.raises(DomainError):
        tetrad_static(ChargedBlackHole(0.0), 3.0, 0.0)


def test_tetrad_reconstructs_minkowski_everywhere():
    for model in [ChargedBlackHole(x) for x in (0.0, 0.16, 0.25, 0.5)]:
        floor = (outer_horizon(model.xi2) or 0.0) + 0.05
        for z in np.linspace(floor + 0.05, 40.0, 9):
            for theta in (0.3, math.pi / 2, 2.8):
                e = tetrad_static(model, float(z), theta).as_matrix()
                g = metric_matrix(model, float(z), theta)
                assert np.abs(e.T @ g @ e - ETA).max() < 1e-12


def test_kruskal_map_basics():
    p = kruskal_map(1.0, 2.7)
    assert p.R**2 - p.T**2 == pytest.approx(0.0, abs=1e-12)
    assert kruskal_map(3.1, 0.0).T == 0.0
    for r, t in ((1.5, 0.7), (4.0, -2.0), (0.5, 1.0)):
        p = kruskal_map(r, t)
        assert p.R**2 - p.T**2 == pytest.approx(4 * (r - 1) * math.exp(r), rel=1e-12)
    with pytest.raises(DomainError):
        kruskal_map(0.0, 1.0)


@pytest.mark.parametrize("call, args", [
    (kruskal_map, (2000.0, 0.0)),     # e^{r/2} overflows
    (kruskal_map, (3.0, 2000.0)),     # sinh(t/2) overflows
    (kruskal_map, (1400.0, 20.0)),    # each factor finite, their product not
    (kruskal_map, (3.0, math.nan)),
], ids=["map-r", "map-t", "map-product", "map-t-nan"])
def test_kruskal_overflow_is_a_domain_error(call, args):
    with pytest.raises(DomainError, match="not (a )?finite float"):
        call(*args)


def test_kruskal_map_and_tetrad_near_the_float_limit():
    # the docstring's range: r + |t| + ln|r - 1| < 1418
    for r, t in ((1410.0, 0.0), (3.0, 1415.0), (0.5, 1419.0)):
        p = kruskal_map(r, t)
        assert math.isfinite(p.T) and math.isfinite(p.R)


def test_kruskal_roundtrip_grid():
    for r in np.geomspace(1.01, 50.0, 12):
        for t in (-10.0, -1.3, 0.0, 2.2, 10.0):
            p = kruskal_map(float(r), t)
            assert abs(kruskal_radius(p.T, p.R) - r) < 1e-10
    # interior branch
    for r in (0.2, 0.7, 0.95):
        p = kruskal_map(r, 1.1)
        assert abs(kruskal_radius(p.T, p.R) - r) < 1e-10


def test_kruskal_radius_domain():
    with pytest.raises(DomainError):
        kruskal_radius(2.0, 0.0)  # R^2 - T^2 = -4, the r = 0 locus
    with pytest.raises(DomainError):
        kruskal_radius(3.0, 0.0)


def test_frame_transform_is_lorentz():
    for r in np.linspace(1.05, 10.0, 5):
        for t in (-3.0, 0.0, 1.7, 5.0):
            tmat = frame_transform_matrix(kruskal_map(float(r), t))
            assert np.abs(tmat @ ETA @ tmat.T - ETA).max() < 1e-10


def test_frame_transform_identity_at_t0():
    tmat = frame_transform_matrix(kruskal_map(2.0, 0.0))
    assert np.abs(tmat - np.eye(4)).max() < 1e-10


def test_frame_transform_horizon_error():
    with pytest.raises(HorizonError):
        frame_transform_matrix(kruskal_map(1.0, 0.5))


def test_frame_transform_composes_static_into_kruskal_tetrad():
    r, t = 3.0, 0.7
    point = kruskal_map(r, t)
    # static frame vectors pushed to Kruskal coordinates via the Jacobian
    e_static = tetrad_static(ChargedBlackHole(0.0), r, math.pi / 2).as_matrix()
    jac = np.eye(4)
    jac[0, 0] = point.R / 2            # dT/dt
    jac[1, 0] = point.T / 2            # dR/dt
    jac[0, 1] = r * point.T / (2 * (r - 1))   # dT/dr
    jac[1, 1] = r * point.R / (2 * (r - 1))   # dR/dr
    columns = jac @ e_static
    tmat = frame_transform_matrix(point)
    transformed = columns @ tmat.T
    # the Kruskal tetrad's legs at theta = pi/2
    leg = math.sqrt(r) * math.exp(0.5 * r)
    expected = np.diag([leg, leg, 1.0 / r, 1.0 / r])
    assert np.abs(transformed - expected).max() < 1e-10


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: metric_potentials(ChargedBlackHole(0.16), NAN),
    lambda: metric_potentials(ChargedBlackHole(0.16), INF),
    lambda: tetrad_static(ChargedBlackHole(0.0), NAN, math.pi / 2),
    lambda: metric_matrix(ChargedBlackHole(0.5), INF, math.pi / 2),
    lambda: kruskal_map(NAN, 0.0),
    lambda: kruskal_map(INF, 0.0),
    lambda: lambda_radial(ChargedBlackHole(0.0), NAN, 0.3),
    lambda: circular_orbit_state(ChargedBlackHole(0.0), INF, 0.6),
], ids=["potentials-nan", "potentials-inf", "tetrad-nan", "metric-inf", "map-nan",
        "map-inf", "radial-fall-nan", "orbit-state-inf"])
def test_non_finite_radius_rejected(call):
    with pytest.raises(DomainError, match="^radius must be positive"):
        call()


@pytest.mark.parametrize("T, R", [(0.0, NAN), (NAN, 1.0), (INF, 0.0), (0.0, -INF),
                                  (0.0, 1e160), (1e200, 1e200)])
def test_kruskal_radius_rejects_points_without_a_finite_target(T, R):
    # R^2 - T^2 is nan, infinite or overflows: no radius is defined
    with pytest.raises(DomainError, match="no finite R\\^2-T\\^2"):
        kruskal_radius(T, R)


def test_kruskal_radius_finds_roots_out_to_the_largest_target():
    # R^2 - T^2 = 1e300 has its root near r = 683, where e^r is still finite
    r = kruskal_radius(0.0, 1e150)
    assert 682.0 < r < 684.0
    assert kruskal_map(r, 0.0).R == pytest.approx(1e150, rel=1e-10)
    # the largest finite target keeps its root below r = 702
    assert kruskal_radius(0.0, 1.3e154) == pytest.approx(701.78, abs=0.01)


def test_metric_potentials_error_messages():
    with pytest.raises(DomainError, match=r"^radius must be positive and finite, got z=-2\.0$"):
        metric_potentials(ChargedBlackHole(0.0), -2.0)
    with pytest.raises(HorizonError, match=r"^z=0\.5 is on or inside a horizon of charged "
                                           r"black hole \(xi2=0\.16\) \(e\^\{2A\}=-3\.600e-01\)$"):
        metric_potentials(ChargedBlackHole(0.16), 0.5)
