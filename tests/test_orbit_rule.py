"""Where a circular orbit exists: roots.no_orbit, and every function that follows it.

The rule's mask is held to the rule it replaced (a floor at the outer
horizon plus a band s / z^2 < 1e-9, s = z^2 - z + xi2), copied here as
the oracle, over a seeded corpus at and around every horizon.  Drawn
(xi2, z) near each horizon then tie OrbitParams, radial_factor,
theta_amplitude and theta_zeros to that one answer.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravent import HorizonError, KruskalPoint, OrbitParams, frame_transform_matrix, theta_amplitude
from gravent.roots import horizons, no_orbit, outer_horizon, theta_zeros
from gravent.wigner import radial_factor

# near 1/4, where the horizons merge and the band of the near-zero sits at z = 1/2
QUARTER = [0.25 + sign * 10.0 ** -k for k in range(1, 17) for sign in (-1, 1)] + [
    float(np.nextafter(0.25, side)) for side in (0.0, 1.0)]
CHARGES = [0.0, 1e-300, 1e-12, 0.1, 0.16, 0.2, 0.25, 0.265, 0.28, 9.0 / 32.0, 0.3, 0.5, 2.0]


def former_rule(z, xi2):
    """The mask radial_factor made before no_orbit: the outer horizon as a floor per charge,
    and the band s / z^2 < 1e-9."""
    z = np.asarray(z, dtype=float)[()]
    floor = np.reshape([zp or 0.0 for zp in map(outer_horizon, np.ravel(xi2).tolist())],
                       np.shape(xi2))
    with np.errstate(all="ignore"):
        s = z * z - z + xi2
        return (z <= floor) | (s / (z * z) < 1e-9)


def _ulps(x: float, count: int) -> list[float]:
    """x and the count floats on each side of it."""
    out, up, down = [x], x, x
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


def corpus(xi2: float, rng: np.random.Generator) -> np.ndarray:
    """Radii at and around each horizon of xi2 and z = 1/2, and the edge values."""
    rel = 10.0 ** -np.arange(1.0, 17.0)
    radii = [0.0, -0.0, -1e-300, -1.0, -math.inf, math.inf, math.nan, 1e-300, 1e100]
    for anchor in horizons(xi2) + [0.5]:
        radii += _ulps(anchor, 5)
        radii += (anchor * (1.0 + np.concatenate([rel, -rel]))).tolist()
        radii += (anchor * (1.0 + rng.uniform(-1e-3, 1e-3, 50))).tolist()
    return np.array(radii + rng.uniform(0.0, 3.0, 100).tolist())


def test_the_rule_is_the_floor_and_band_it_replaced():
    rng = np.random.default_rng(20241020)
    charges = CHARGES + QUARTER + rng.uniform(0.0, 0.6, 200).tolist()
    points = 0
    for xi2 in charges:
        z = corpus(xi2, rng)
        with np.errstate(all="ignore"):  # inf - inf in the band, as radial_factor meets it
            mask = no_orbit(z, xi2)
        assert np.array_equal(mask, former_rule(z, xi2)), xi2
        assert np.array_equal(radial_factor(z, xi2)[1], mask), xi2
        # a float and an array get the same answer, with no ZeroDivisionError at z = 0
        assert [bool(no_orbit(x, xi2)) for x in z.tolist() if math.isfinite(x)] == \
            mask[np.isfinite(z)].tolist()
        # an array of charges, as the oracle passes them, gives the same mask
        with np.errstate(all="ignore"):
            assert np.array_equal(no_orbit(z, np.full(z.shape, xi2)), mask)
        points += z.size
    assert points > 50_000


@st.composite
def near_horizons(draw):
    """(xi2, z) at or near each horizon and near z = 1/2, or anywhere up to z = 3."""
    xi2 = draw(st.one_of(st.floats(0.0, 0.6), st.sampled_from(
        (0.0, 0.16, 0.25, 0.25 - 1e-12, 0.25 + 1e-12, 0.25 + 1e-9, 0.265, 9.0 / 32.0))))
    anchors = [a for a in horizons(xi2) + [0.5] if a > 0.0]
    anchor = draw(st.sampled_from(anchors))
    offset = draw(st.sampled_from((-1.0, 0.0, 1.0))) * 10.0 ** draw(st.floats(-16.0, -1.0))
    z = draw(st.one_of(st.just(anchor * (1.0 + offset)), st.floats(1e-3, 3.0)))
    return xi2, z


@settings(max_examples=400, deadline=None, derandomize=True)
@given(near_horizons())
@example((0.25, 0.50001))
@example((0.25, 0.500001))
@example((0.0, 1.000000000001))
@example((0.25 + 1e-12, 0.5))
@example((0.25 + 1e-12, 0.500000000004))
def test_orbit_params_accept_exactly_where_the_radial_factor_is_unmasked(point):
    xi2, z = point
    _, masked = radial_factor(z, xi2)
    try:
        params = OrbitParams(xi2=xi2, z=z, q=0.6, beta=1.0, tau_ratio=5.0)
    except HorizonError as exc:
        assert masked, point
        assert "not outside the outer horizon" in str(exc)
        return
    assert not masked, point
    assert math.isfinite(theta_amplitude(params))  # never a HorizonError once accepted


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.floats(0.0, 0.3), st.sampled_from(
    (0.0, 0.16, 0.25, 0.25 + 1e-12, 0.250000000001, 0.265, 9.0 / 32.0))))
@example(0.25 + 1e-12)
def test_every_angle_zero_builds_an_orbit(xi2):
    for z in theta_zeros(xi2):
        assert not no_orbit(z, xi2)
        assert theta_amplitude(OrbitParams(xi2=xi2, z=z, q=0.6, beta=1.0, tau_ratio=5.0)) == \
            pytest.approx(0.0, abs=1e-6)


def test_zeros_of_a_charge_just_above_a_quarter_leave_out_the_near_zero():
    # the root (3 - sqrt(1 - 3.2e-11)) / 4 = 0.500000000004 sits in the band of z = 1/2
    assert theta_zeros(0.25 + 1e-12) == [pytest.approx(1.0, abs=1e-11)]
    assert theta_zeros(0.25) == [1.0]


@pytest.mark.parametrize("r", _ulps(1.0, 5) + _ulps(1.0 + 1e-9, 5)
                         + [1.0 - 1e-9, 1.0 + 2e-9, 0.5, 0.0, -1.0, 1.05, 10.0])
def test_the_kruskal_frame_refuses_where_the_uncharged_rule_does(r):
    point = KruskalPoint(0.0, 1.0, r)
    if no_orbit(r, 0.0):
        with pytest.raises(HorizonError, match="frame transform singular at the horizon"):
            frame_transform_matrix(point)
    else:
        assert np.isfinite(frame_transform_matrix(point)).all()
