import math

import numpy as np
import pytest
from scipy.integrate import quad as adaptive_quad

import gravent.entanglement as entanglement
from gravent.entanglement import (
    CONVERGED,
    FAIL_RESIDUAL,
    NO_CONVERGENCE,
    NOT_FINITE,
    REDUCED_TOLERANCE,
    QuadConfig,
)

from gravent import (
    BELL_STATES,
    BellState,
    batch_characteristic,
    batch_reduced_density_bruteforce,
    CHI1,
    CHI3,
    CHI4,
    ConvergenceError,
    DomainError,
    MomentumDistribution,
    NumericalError,
    OrbitParams,
    TrigMoments,
    bell_state,
    binary_entropy,
    density_matrix_diagnostics,
    entanglement_of_formation,
    momentum_factor,
    reduced_density_bruteforce,
    reduced_density_closed,
    spin_flip,
    theta_circular,
    trig_moments,
    wootters_concurrence,
)

# arbitrary-precision value of h((1 + sqrt(1 - 0.25))/2)
E_OF_HALF = 0.35457890266526988


def test_bell_states_orthonormal():
    vectors = [chi.array() for chi in BELL_STATES]
    for i, v in enumerate(vectors):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        for w in vectors[i + 1:]:
            assert abs(v @ w) < 1e-15
    assert bell_state("chi2").tag == "chi2"
    with pytest.raises(DomainError):
        bell_state("chi5")


def test_momentum_distribution_normalized():
    dist = MomentumDistribution(q=0.6, beta=1.3)
    total, _ = adaptive_quad(dist.weight, 0.6 - 16, 0.6 + 16)
    assert abs(total - 1.0) < 1e-10
    with pytest.raises(DomainError):
        MomentumDistribution(q=0.0, beta=0.0)


def test_trig_moments_constant_angle():
    dist = MomentumDistribution(q=0.2, beta=0.7)
    theta0 = 1.234
    m = trig_moments(lambda p: np.full(np.shape(p), theta0), dist)
    assert m.C == pytest.approx(math.cos(theta0), abs=1e-14)
    assert m.S == pytest.approx(math.sin(theta0), abs=1e-14)
    assert m.C**2 + m.S**2 <= 1.0 + 1e-12


def test_scalar_angle_is_broadcast_over_the_momenta():
    m = trig_moments(lambda p: 0.0, MomentumDistribution(q=0.0, beta=1.0))
    assert (m.C, m.S) == (1.0, 0.0)
    rho = reduced_density_bruteforce(CHI1, lambda p: 0.3, MomentumDistribution(q=0.6, beta=1.0))
    closed = reduced_density_closed(CHI1, TrigMoments(math.cos(0.3), math.sin(0.3)))
    assert np.abs(rho - closed).max() < 1e-14


def test_trig_moments_delta_limit():
    params = OrbitParams(0.16, 1.6, 0.6, 1.0, 5.0)
    theta_fn = lambda p: theta_circular(params, p)
    m = trig_moments(theta_fn, MomentumDistribution(q=0.6, beta=1e-6))
    assert m.C == pytest.approx(math.cos(float(theta_fn(0.6))), abs=1e-6)
    assert m.S == pytest.approx(math.sin(float(theta_fn(0.6))), abs=1e-6)
    # the delta limit saturates the moment bound
    assert m.C**2 + m.S**2 == pytest.approx(1.0, abs=1e-6)


def test_trig_moments_linear_oracle():
    # Theta = a + b p: Gaussian characteristic function gives the moments
    a, b = 0.9, 2.3
    q, beta = 0.4, 1.1
    dist = MomentumDistribution(q=q, beta=beta)
    m = trig_moments(lambda p: a + b * p, dist)
    damp = math.exp(-0.25 * beta**2 * b**2)
    assert m.C == pytest.approx(damp * math.cos(a + b * q), abs=1e-10)
    assert m.S == pytest.approx(damp * math.sin(a + b * q), abs=1e-10)
    # and an independent adaptive quadrature agrees
    c_ref, _ = adaptive_quad(lambda p: dist.weight(p) * math.cos(a + b * p),
                             q - 14 * beta, q + 14 * beta, limit=200)
    assert m.C == pytest.approx(c_ref, abs=1e-10)


def test_trig_moments_sign_flip():
    params = OrbitParams(0.265, 1.6, 0.6, 1.0, 5.0)
    dist = MomentumDistribution(q=0.6, beta=1.0)
    m_plus = trig_moments(lambda p: theta_circular(params, p), dist)
    m_minus = trig_moments(lambda p: -theta_circular(params, p), dist)
    assert m_minus.C == pytest.approx(m_plus.C, abs=1e-14)
    assert m_minus.S == pytest.approx(-m_plus.S, abs=1e-14)


def test_trig_moments_reports_convergence():
    dist = MomentumDistribution(q=0.0, beta=1.0)
    m = trig_moments(lambda p: 0.2 * p, dist)
    assert m.residual < 1e-10
    assert m.nodes >= 128
    with pytest.raises(ConvergenceError):
        trig_moments(lambda p: 5e5 * p, dist)
    # the true moments are ~ 0 for both slopes, but the 64- and
    # 128-interval rules share an alias at 2 pi 348 * 64/14 ~ 9995.6, 4.4
    # from 1e4, and agree on C ~ 8.8e-3; the 1024- and 2048-interval rules
    # share one at 2 pi 2048/14 ~ 919.2, 5 from 914, and agree on C ~ 1.4e-3.
    # Agreement counts only where the angle is resolved, with a margin
    # from the alias, and no rule within the cap resolves these
    for slope in (1e4, 914.0):
        with pytest.raises(ConvergenceError):
            trig_moments(lambda p: slope * p, dist)


def test_fast_linear_rows_stop_only_where_resolved():
    # slope 300 stays short of the 1024-interval rule's first alias
    # frequency, 2 pi 1024/14 ~ 460, by more than the margin of 30; 1e3 and
    # 1e4 pass the 2048-interval rule's, ~ 919, so their residual is inf
    dist = MomentumDistribution(q=0.0, beta=1.0)
    for slope in (1e4, 1e3):
        with pytest.raises(ConvergenceError, match="turns too fast for the 2048-interval rule"):
            trig_moments(lambda p: slope * p, dist)
    m = trig_moments(lambda p: 300.0 * p, dist)
    assert m.nodes == 1024 and max(abs(m.C), abs(m.S)) <= 1e-9
    assert trig_moments(lambda p: 2.0 * p, dist).residual < 1e-10


def test_trig_moments_nonfinite_rejected():
    dist = MomentumDistribution(q=0.0, beta=1.0)
    with pytest.raises(DomainError):
        trig_moments(lambda p: np.where(p > 4.0, np.inf, p), dist)


def test_momentum_distribution_rejects_non_finite():
    for q, beta in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            MomentumDistribution(q=q, beta=beta)


def test_momentum_distribution_takes_the_orbit_bounds():
    # the packet holds q and beta to the rules OrbitParams holds them to
    MomentumDistribution(q=-1e8, beta=1e8)
    with pytest.raises(DomainError, match=r"\|q\| must be <= 1e\+08, got q=1e\+200"):
        MomentumDistribution(q=1e200, beta=1.0)
    with pytest.raises(DomainError, match=r"beta must be <= 1e\+08"):
        MomentumDistribution(q=0.0, beta=1e9)


def test_batch_characteristic_rows_match_single_rows():
    # each row stops at its own level; a row's failure stays in its status,
    # and the real line's rows and the shifted ones give the bits they give
    # alone: one averaged, one damped below every node's threshold, decided
    # without the rule (nodes 0), and one of infinite kappa, never decided
    kappa = np.array([0.2, 3.0, np.inf, 1e6, 30.0, 400.0, 1e4, -np.inf])
    q = np.array([0.0, 0.3, -0.5, 0.2, 1.0, 2.0, 2.0, 1.0])
    depth = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -0.2, -0.2, 0.2])
    out = batch_characteristic(kappa, q, 0.9, depth)
    assert out.status.tolist() == [CONVERGED, CONVERGED, NOT_FINITE, NO_CONVERGENCE,
                                   CONVERGED, CONVERGED, CONVERGED, NOT_FINITE]
    assert len(set(out.nodes[out.status == CONVERGED].tolist())) > 1
    assert out.residual[3] > FAIL_RESIDUAL
    assert out.nodes[6] == 0 and out.residual[6] == 0.0 and out.values[6].tolist() == [0.0, 0.0]
    assert np.signbit(out.values[6]).tolist() == [False, False]
    assert (np.delete(out.nodes, 6) > 0).all()
    for i in range(len(kappa)):
        single = batch_characteristic(kappa[i:i + 1], q[i:i + 1], 0.9, depth[i:i + 1])
        for name in ("values", "residual", "nodes", "status"):
            assert getattr(out, name)[i].tobytes() == getattr(single, name)[0].tobytes(), (i, name)
    empty = batch_characteristic(np.array([]), np.array([]), 1.0, np.array([]))
    assert empty.status.size == 0 and empty.values.shape == (0, 2)


def test_the_real_lines_turn_bound_clears_only_rows_the_node_test_clears(monkeypatch):
    # on the real line the angle -kappa du turns at most at |kappa| half/2
    # per unit of t (u' <= 1/2), so a row the bound clears is one whose
    # nodes _resolved would clear at every level; rows from slow to far
    # past _S_TURN, the infinite ones included, some cleared and some not
    rng = np.random.default_rng(11)
    size = 300
    beta = 10.0 ** rng.uniform(-2.0, 2.0, size)
    q = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
    omega = 10.0 ** rng.uniform(-3.0, 5.0, size)  # |kappa| beta/2
    kappa = rng.choice([-1.0, 1.0], size) * 2.0 * omega / beta
    kappa[:3] = [math.inf, -math.inf, 0.0]
    depth = np.zeros(size)
    real, counts = entanglement._adaptive_average, []

    def checked(rows_fn, size, n=64, turn=None):
        for n_level in (64, 128, 256, 512, 1024, 2048):  # every level the rule checks
            h = 2.0 * 7.0 / n_level
            _, angle, w = rows_fn(np.arange(size), (h * np.arange(1, n_level, 2) - 7.0)[None])
            cleared = entanglement._cleared(turn, h)
            assert entanglement._resolved(angle(cleared), w[cleared], h).all(), n_level
            assert not cleared[:2].any()
            counts.append(int(cleared.sum()))
        return real(rows_fn, size, n, turn)

    monkeypatch.setattr(entanglement, "_adaptive_average", checked)
    out = batch_characteristic(kappa, q, beta, depth)
    assert len(counts) == 6 and 0 < min(counts) and max(counts) < size
    # and the bound moves no bit: a run with no row vouched for gives the same
    monkeypatch.setattr(entanglement, "_adaptive_average",
                        lambda rows_fn, size, n=64, turn=None: real(rows_fn, size, n))
    plain = batch_characteristic(kappa, q, beta, depth)
    for name in ("values", "residual", "nodes", "status"):
        assert getattr(out, name).tobytes() == getattr(plain, name).tobytes(), name
    assert (out.status == NO_CONVERGENCE).any() and (out.status == CONVERGED).any()


def test_constant_integrand_averages_to_itself():
    # each estimate divides by the rule's sum of the weight it sums against
    out = batch_characteristic(np.zeros(3), np.array([0.0, 0.6, 20.0]), 1.0, 0.0)
    assert out.values.tolist() == [[1.0, 0.0]] * 3


def test_a_one_row_weight_gives_the_bits_of_a_weight_per_row_and_is_summed_once_per_level():
    # _adaptive_average reads the weight's shape: a one-row weight serves
    # every row of a block and is summed once per level, a weight per row
    # is summed per block, and both give the same Averages, bit for bit
    freq = np.linspace(0.5, 30.0, 300)[:, None]  # rows that stop at different levels
    blocks, sums = {}, {}

    class Counted(np.ndarray):
        # the weight sums are the products of the constant 1 with w
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            left = inputs[0]
            if ufunc is np.matmul and not isinstance(left, Counted) and (left == 1).all():
                sums[left.shape[-1]] = sums.get(left.shape[-1], 0) + 1
            inputs = [np.asarray(x) if isinstance(x, Counted) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    def average(per_row):
        def rows(index, t):
            blocks[t.size] = blocks.get(t.size, 0) + 1
            theta = freq[index] * np.sin(t)
            w = np.exp(-t * t)
            w = np.repeat(w, index.size, axis=0) if per_row else w
            return entanglement._cis(theta), theta.__getitem__, w.view(Counted)

        blocks.clear()
        sums.clear()
        return entanglement._adaptive_average(rows, freq.size)

    shared = average(False)
    assert sums == dict.fromkeys(blocks, 1) and max(blocks.values()) > 1
    per_row = average(True)
    assert sums == blocks
    for name in ("values", "residual", "nodes", "status"):
        assert getattr(shared, name).tobytes() == getattr(per_row, name).tobytes(), name
    assert len(set(shared.nodes.tolist())) > 1 and (shared.status == CONVERGED).all()


@pytest.mark.parametrize("shifted", [False, True], ids=["real-line", "shifted"])
def test_shared_centre_gives_the_bits_of_a_column(monkeypatch, shifted):
    # a scalar q is shared by every row, so each block of rows gets one
    # table: of the momentum factor on the real line, p of shape (1, nodes),
    # and of the line's u and weight for the rows of one depth in s = asinh p;
    # the rows' averages are the ones a column of equal centres gives, bit
    # for bit
    amplitude = np.linspace(-40.0, 60.0, 300)
    shapes = []
    if shifted:
        kappa = amplitude * 0.36 * math.sqrt(1.36)
        depth = -0.3 * np.sign(kappa)
        real_table = entanglement._line_table

        def table(t, *line):
            out = real_table(t, *line)
            shapes.append(out[0].shape)
            return out

        monkeypatch.setattr(entanglement, "_line_table", table)
        shared = batch_characteristic(kappa, 0.6, 1.0, depth)
        tables = shapes[:]
        column = batch_characteristic(kappa, np.full(300, 0.6), 1.0, depth)
    else:  # the oracle's rule in x, through its batch of density matrices
        def factor(q, p):
            shapes.append(p.shape)
            return momentum_factor(q, p)

        shared = batch_reduced_density_bruteforce(amplitude, factor, 0.6, 1.0)
        tables = shapes[:]
        column = batch_reduced_density_bruteforce(amplitude, momentum_factor,
                                                  np.full(300, 0.6), 1.0)
        assert shared.tobytes() == column.tobytes()
    if shifted:
        for name in ("values", "residual", "nodes", "status"):
            assert getattr(shared, name).tobytes() == getattr(column, name).tobytes(), name
        assert (shared.status == CONVERGED).all()
    rows = [rows for rows, _ in tables]
    if shifted:  # a row of each sign sets its own line; the block where
        # the sign turns is the one with a table per row, once per level
        levels = len({nodes for _, nodes in tables})
        assert rows.count(1) >= len(rows) - levels and max(rows) > 1
    else:
        assert set(rows) == {1}


def test_shared_line_tables_live_for_one_call():
    # rows with a scalar centre and width share their line's tables, formed
    # once per level of a call; two calls on different lines of the same
    # depths, in either order, each give the bits of a column of their own
    # centres, which forms a table per block
    kappa = np.linspace(-60.0, 80.0, 200)
    depth = np.where(np.abs(kappa) < 4.0, 0.0, -0.25 * np.sign(kappa))
    lines = [(0.6, 1.0), (2.5, 0.7)]
    alone = [batch_characteristic(kappa, np.full(200, q), np.full(200, beta), depth)
             for q, beta in lines]
    for order in ([0, 1, 0], [1, 0, 1]):
        for i in order:
            got = batch_characteristic(kappa, *lines[i], depth)
            for name in ("values", "residual", "nodes", "status"):
                assert getattr(got, name).tobytes() == getattr(alone[i], name).tobytes(), (i, name)
    assert (alone[0].values != alone[1].values).all()
    assert {64, 128} <= set(alone[0].nodes.tolist()) and (depth == 0.0).any()


def test_capped_rows_with_small_residual_have_reduced_tolerance(monkeypatch):
    # at a 256-interval cap, kappa = 255 and 265 on the real line in s stop
    # with residuals between TOL and FAIL_RESIDUAL, kappa = 280 above it; in
    # x, slopes 54 and 55 stop between them and slope 56 above
    monkeypatch.setattr(entanglement, "DEFAULT_QUAD", QuadConfig(256))
    kappa = np.array([255.0, 265.0, 280.0])
    out = batch_characteristic(kappa, 0.0, 0.9, 0.0)
    assert out.status.tolist() == [REDUCED_TOLERANCE, REDUCED_TOLERANCE, NO_CONVERGENCE]
    assert (out.nodes == 256).all()
    for i in (0, 1):
        single = batch_characteristic(kappa[i:i + 1], 0.0, 0.9, 0.0)
        assert single.values.tobytes() == out.values[i].tobytes()
        assert 1e-10 <= single.residual[0] <= FAIL_RESIDUAL
    for slope in (54.0, 55.0):
        m = trig_moments(lambda p: slope * p, MomentumDistribution(q=0.0, beta=0.9))
        assert m.nodes == 256 and 1e-10 <= m.residual <= FAIL_RESIDUAL
    with pytest.raises(ConvergenceError):
        trig_moments(lambda p: 56.0 * p, MomentumDistribution(q=0.0, beta=0.9))


def test_moment_bound_on_random_draws():
    rng = np.random.default_rng(11)
    dist = MomentumDistribution(q=0.3, beta=0.9)
    for _ in range(25):
        a, b, c = rng.uniform(-3, 3, 3)
        m = trig_moments(lambda p: a + b * p + c * np.tanh(p), dist)
        assert m.C**2 + m.S**2 <= 1.0 + 1e-12


def test_reduced_density_closed_spec_cases():
    # identity rotation preserves the pure Bell state
    rho = reduced_density_closed(CHI1, TrigMoments(C=1.0, S=0.0))
    expected = 0.5 * np.array([[1, 0, 0, 1], [0, 0, 0, 0],
                               [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex)
    assert np.abs(rho - expected).max() < 1e-15
    assert np.abs(rho - CHI1.projector()).max() < 1e-15
    # fully decohered moments
    rho = reduced_density_closed(CHI1, TrigMoments(C=0.0, S=0.0))
    expected = 0.25 * np.array([[1, 0, 0, 1], [0, 1, -1, 0],
                                [0, -1, 1, 0], [1, 0, 0, 1]], dtype=complex)
    assert np.abs(rho - expected).max() < 1e-15
    assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_reduced_density_closed_hygiene():
    m = TrigMoments(C=0.6, S=0.3)
    for chi in BELL_STATES:
        diag = density_matrix_diagnostics(reduced_density_closed(chi, m))
        assert diag.hermiticity < 1e-12
        assert diag.trace_error < 1e-10
        assert diag.min_eigenvalue > -1e-10


def test_bruteforce_identity_rotation_gives_projectors():
    dist = MomentumDistribution(q=0.6, beta=1.0)
    for chi in BELL_STATES:
        rho = reduced_density_bruteforce(chi, lambda p: np.zeros(np.shape(p)),
                                         dist)
        assert np.abs(rho - chi.projector()).max() < 1e-12


def test_bruteforce_trace_one():
    params = OrbitParams(0.265, 1.2, 0.9, 0.8, 3.0)
    dist = MomentumDistribution(q=0.9, beta=0.8)
    rho = reduced_density_bruteforce(CHI4, lambda p: theta_circular(params, p),
                                     dist)
    assert abs(rho.trace() - 1.0) < 1e-10


def test_closed_matches_bruteforce_at_reference_orbit():
    # the central oracle: both routes agree at the canonical sweep point
    params = OrbitParams(0.265, 1.6, 0.6, 1.0, 5.0)
    theta_fn = lambda p: theta_circular(params, p)
    dist = MomentumDistribution(q=0.6, beta=1.0)
    moments = trig_moments(theta_fn, dist)
    for chi in BELL_STATES:
        closed = reduced_density_closed(chi, moments)
        brute = reduced_density_bruteforce(chi, theta_fn, dist)
        assert np.abs(closed - brute).max() < 1e-8


def test_closed_matches_bruteforce_random_draws():
    from gravent import random_orbit_params

    rng = np.random.default_rng(5)
    for _ in range(20):
        params = random_orbit_params(rng)
        theta_fn = lambda p: theta_circular(params, p)
        dist = MomentumDistribution(params.q, params.beta)
        moments = trig_moments(theta_fn, dist)
        chi = BELL_STATES[int(rng.integers(0, 4))]
        closed = reduced_density_closed(chi, moments)
        brute = reduced_density_bruteforce(chi, theta_fn, dist)
        assert np.abs(closed - brute).max() < 1e-8


def test_spin_flip_conjugation():
    rho = CHI3.projector()
    flipped = spin_flip(rho)
    assert np.abs(flipped - rho).max() < 1e-15  # Bell projectors are flip-invariant
    assert np.abs(flipped - flipped.conj().T).max() < 1e-15


def test_wootters_concurrence_reference_states():
    for chi in BELL_STATES:
        assert wootters_concurrence(chi.projector()) == pytest.approx(1.0,
                                                                      abs=1e-12)
    assert wootters_concurrence(np.eye(4, dtype=complex) / 4.0) == pytest.approx(
        0.0, abs=1e-12)


def test_concurrence_equals_moment_norm():
    m = TrigMoments(C=0.6, S=0.3)
    k = 0.6**2 + 0.3**2
    values = [wootters_concurrence(reduced_density_closed(chi, m))
              for chi in BELL_STATES]
    for value in values:
        assert value == pytest.approx(k, abs=1e-8)
    assert max(values) - min(values) < 1e-10


def test_rho_rho_tilde_spectrum():
    m = TrigMoments(C=0.55, S=0.25)
    k = m.C**2 + m.S**2
    rho = reduced_density_closed(CHI1, m)
    evals = np.sort(np.linalg.eigvals(rho @ spin_flip(rho)).real)[::-1]
    expected = np.array([0.25 * (1 + k)**2, 0.25 * (1 - k)**2, 0.0, 0.0])
    assert np.abs(evals - expected).max() < 1e-12


def test_wootters_rejects_invalid_input():
    invalid = np.diag([1.5, -0.5, 0.2, 1.0]).astype(complex)
    with pytest.raises(NumericalError):
        wootters_concurrence(invalid)
    # one invalid matrix in a stack of valid ones
    stack = np.array([reduced_density_closed(chi, TrigMoments(0.6, 0.3))
                      for chi in BELL_STATES] * 3)
    assert wootters_concurrence(stack).shape == (12,)
    stack[7] = invalid
    with pytest.raises(NumericalError):
        wootters_concurrence(stack)
    with pytest.raises(DomainError):
        wootters_concurrence(np.eye(2, dtype=complex))


def test_wootters_rejects_a_complex_spectrum():
    # rho rho~ of a physical state has a real spectrum; this one's is 1 +- i
    rho = np.eye(4, dtype=complex)
    rho[0, 1], rho[1, 0] = 1.0, -1.0
    with pytest.raises(NumericalError, match="^complex eigenvalue"):
        wootters_concurrence(rho)


def test_closed_density_rejects_an_unknown_bell_tag():
    with pytest.raises(DomainError, match="unknown Bell state 'chi5'"):
        reduced_density_closed(BellState("chi5", (0.0, 0.0, 0.0, 1.0)), TrigMoments(0.6, 0.3))


def test_entanglement_of_formation_values():
    assert entanglement_of_formation(1.0) == 1.0
    assert entanglement_of_formation(0.0) == 0.0
    assert entanglement_of_formation(0.5) == pytest.approx(E_OF_HALF, abs=1e-12)
    with pytest.raises(DomainError):
        entanglement_of_formation(-0.1)
    with pytest.raises(DomainError):
        entanglement_of_formation(1.1)


def test_entanglement_monotone_in_concurrence():
    grid = np.linspace(0.0, 1.0, 101)
    values = [entanglement_of_formation(float(c)) for c in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def _entropy_by_floats(x):
    # h one float at a time with math.log2 and math.log1p, the bits the array form keeps
    total = 0.0
    if x > 0.0:
        total -= x * math.log2(x)
    if x < 1.0:
        total -= (1.0 - x) * math.log1p(-x) / math.log(2.0)
    return total


def _formation_by_floats(c):
    c = min(max(c, 0.0), 1.0)
    return _entropy_by_floats(c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c))))


ENTROPY_EDGES = [0.0, 1.0, 1e-300, 1.0 - 2.0 ** -53, 5e-324, 2.0 ** -1070, 0.5]


@pytest.mark.parametrize("fn,by_floats,edges", [
    (binary_entropy, _entropy_by_floats, ENTROPY_EDGES),
    (entanglement_of_formation, _formation_by_floats, ENTROPY_EDGES + [-1e-13, 1.0 + 1e-13]),
], ids=["binary_entropy", "entanglement_of_formation"])
def test_array_entropy_has_the_bits_of_the_float_form(fn, by_floats, edges):
    # element by element the bits of the one-float formula, on the edges
    # (0, 1, 1e-300, 1 - 2^-53, two subnormals, concurrences clipped to 0
    # and 1) and on 10^4 points of [0, 1]
    grid = np.concatenate([edges, np.linspace(0.0, 1.0, 10_000)])
    got = fn(grid)
    assert isinstance(got, np.ndarray) and got.shape == grid.shape
    want = np.array([by_floats(x) for x in grid.tolist()])
    assert got.tobytes() == want.tobytes()
    for x in edges:
        value = fn(x)
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(by_floats(x)).tobytes(), x
    empty = fn(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


@pytest.mark.parametrize("x", [-1e-13, 1.0 + 1e-13, -0.5, 2.0])
def test_binary_entropy_rejects_arguments_outside_the_unit_interval(x):
    with pytest.raises(DomainError, match=rf"^x must lie in \[0, 1\], got {x}$"):
        binary_entropy(x)
    with pytest.raises(DomainError, match=rf"^x must lie in \[0, 1\], got {x}$"):
        binary_entropy(np.array([0.5, x, math.nan]))


def test_entanglement_of_formation_keeps_relative_digits_at_small_concurrence():
    # E = h(y), y = (1 - sqrt(1 - K^2))/2, against h(y) at 50 digits
    # (mpmath), which a y formed as 1 - (1 + sqrt(1 - K^2))/2 missed by
    # 2.6e-10 relative at K = 1e-3 and by 2.2% at K = 1e-7
    for k, want in ((1e-3, 5.843567228192748e-06), (1e-7, 1.2487422092328039e-13)):
        assert entanglement_of_formation(k) == pytest.approx(want, rel=4e-16)


@pytest.mark.parametrize("values,fault", [([0.5, 1.5, -1.0], "1.5"),
                                          ([0.25, -1e-11, 2.0], "-1e-11"),
                                          ([0.0, math.nan, 2.0], "nan")])
def test_array_concurrence_outside_its_domain_names_the_first_fault(values, fault):
    with pytest.raises(DomainError, match=rf"got {fault}$"):
        entanglement_of_formation(np.array(values))


def _seeded_moments(rows, seed=28):
    # 16 components per row over six decades, a fifth of them +0.0 and a fifth -0.0
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, 16)) * 10.0 ** rng.integers(-3, 3, (rows, 16))
    m[rng.random((rows, 16)) < 0.2] = 0.0
    m[rng.random((rows, 16)) < 0.2] = -0.0
    return m


def _einsum_densities(moments, bells):
    m = moments.reshape(moments.shape[:-1] + (1, 2, 2, 2, 2))
    chi = np.array([bell.vector for bell in bells]).reshape(-1, 2, 2)
    rho = np.einsum("...iakc,...jbld,...ab,...cd->...ijkl", m, m, chi, chi)
    return rho.reshape(rho.shape[:-4] + (4, 4)).astype(complex)


def _densities_in_order(moments, bells, order):
    # the same terms as _bell_densities, added into zeros in another order
    m = moments.reshape(moments.shape[:-1] + (1, 2, 2, 2, 2))
    chi = np.array([bell.vector for bell in bells]).reshape(-1, 1, 1, 1, 1, 2, 2)
    rho = np.zeros(m.shape[:-5] + (len(bells), 2, 2, 2, 2))
    for idx in np.ndindex(2, 2, 2, 2):
        a, b, c, d = (idx[order.index(name)] for name in "abcd")
        pair = m[..., :, None, a, :, None, c] * m[..., None, :, b, None, :, d]
        rho += (pair * chi[..., a, b]) * chi[..., c, d]
    return rho.reshape(rho.shape[:-4] + (4, 4)).astype(complex)


@pytest.mark.parametrize("rows", [1, 5, 100])
def test_bell_densities_keep_the_bits_of_einsum(rows):
    moments = _seeded_moments(rows)
    for bells in (BELL_STATES, BELL_STATES[1:2], BELL_STATES[::-1]):
        want = _einsum_densities(moments, bells)
        assert entanglement._bell_densities(moments, bells).tobytes() == want.tobytes()
        assert _densities_in_order(moments, bells, "acbd").tobytes() == want.tobytes()
    if rows == 100:  # the negative control: another order of the same terms moves bits
        assert _densities_in_order(moments, BELL_STATES, "cabd").tobytes() != \
            _einsum_densities(moments, BELL_STATES).tobytes()


def test_closed_density_of_arrays_gives_each_matrix_its_own_bits():
    moments = _seeded_moments(1)[0].reshape(2, 8) * 0.1
    c, s = moments
    for chi in BELL_STATES:
        stack = reduced_density_closed(chi, TrigMoments(c, s))
        assert stack.shape == (8, 4, 4)
        for k in range(8):
            one = reduced_density_closed(chi, TrigMoments(float(c[k]), float(s[k])))
            assert stack[k].tobytes() == one.tobytes()


def test_bruteforce_density_of_several_states_is_one_pass(monkeypatch):
    theta_fn = lambda p: 0.3 * p
    dist = MomentumDistribution(0.6, 1.0)
    calls = []
    real = entanglement._batch_average
    monkeypatch.setattr(entanglement, "_batch_average",
                        lambda *args: calls.append(args) or real(*args))
    stack = reduced_density_bruteforce(BELL_STATES, theta_fn, dist)
    assert len(calls) == 1 and stack.shape == (4, 4, 4)
    for chi, rho in zip(BELL_STATES, stack):
        assert rho.tobytes() == reduced_density_bruteforce(chi, theta_fn, dist).tobytes()
