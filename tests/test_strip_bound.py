"""The strip bound that stops shifted rows, held to the error it bounds.

batch_characteristic stops a shifted row at the first level where a bound
on its rule's error over strips around its line (gravent.strip) falls
below _STRIP_TARGET.  A seeded corpus of shifted rows checks the bound at
every level up to 512 against the rule's actual error, measured against a
4,096-interval rule on the same line, and the same rows, and a wide
packet's, on two lines of different depth; three planted faults in the
bound must each break the first check.  The presets' final levels and
node evaluations are pinned, so a change that loses the saving, or sends
rows deeper, fails.
"""

import math

import numpy as np
import pytest

import gravent.entanglement as entanglement
import gravent.experiments as experiments
import gravent.strip as strips
from gravent import batch_characteristic, figure_preset, run_sweep
from gravent.entanglement import CONVERGED
from gravent.experiments import _S_DEPTH, _s_line
from gravent.wigner import TAU_S, radial_factor

HALF_WIDTH = 7.0
LEVELS = (32, 64, 128, 256, 512)
REFERENCE = 4096


def shifted_corpus(seed=31, size=240):
    """Shifted rows: |q| up to 1e3, beta 0.1..10, both signs of kappa, depths up to _S_DEPTH.

    The depth is _s_line's for the row's q and beta, scaled down at
    random; one row in six is turned the wrong way (kappa sin d > 0).
    """
    rng = np.random.default_rng(seed)
    q = rng.choice([-1.0, 1.0], size) * np.where(rng.uniform(size=size) < 0.3,
                                                 rng.uniform(0.0, 5.0, size),
                                                 10.0 ** rng.uniform(-1.0, 3.0, size))
    beta = 10.0 ** rng.uniform(-1.0, 1.0, size)
    kappa = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(0.0, 4.0, size)
    fast = np.sign(kappa) * 1e9 / (q * q * np.sqrt(q * q + 1.0))  # too fast for the real line
    _, _, depth = _s_line(fast, q, beta)
    depth *= rng.uniform(0.2, 1.0, size)
    depth[rng.uniform(size=size) < 1.0 / 6.0] *= -1.0
    assert 0.0 < np.abs(depth).min() and np.abs(depth).max() <= _S_DEPTH
    return kappa, q, beta, depth


def rule(line_of, row_of, n):
    """Each row's estimate of phi by the n-interval rule on its line, as the sweeps form it."""
    t = ((2.0 * HALF_WIDTH / n) * np.arange(1, n) - HALF_WIDTH)[None]
    out = np.empty(len(line_of), complex)
    for i, (line, row) in enumerate(zip(line_of, row_of)):
        *table, jac_re, jac_im = entanglement._line_table(t, *line[:, None])
        arg, log_mod, live = entanglement._shifted_log(table, *row[:, None])
        term = np.where(live, np.exp(log_mod + 1j * arg), 0.0) * (jac_re + 1j * jac_im)
        out[i] = term.sum() / np.exp(-t * t).sum()
    return out


def violations(kappa, q, beta, depth):
    """(row, level) pairs where the reported bound is below the rule's measured error.

    A row whose rule overflows (a fast row turned the wrong way) has no
    value to bound; its bound must be infinite.
    """
    with np.errstate(all="ignore"):
        line_of, row_of, decided, _ = entanglement._lines(kappa, q, beta, depth)
        kept = ~decided
        line_of, row_of = line_of[kept], row_of[kept]
        terms = strips._strip_terms(kappa[kept], q[kept], beta[kept], depth[kept],
                                          line_of[:, 1], np.exp(row_of[:, 2]))
        reference = rule(line_of, row_of, REFERENCE)
        bad = []
        for n in LEVELS:
            error = np.abs(rule(line_of, row_of, n) - reference)
            error[~np.isfinite(reference)] = math.inf
            bound = strips._strip_error(*terms, n)
            bad.extend((int(i), n) for i in np.flatnonzero(~(error <= bound)))
    return bad


@pytest.fixture(scope="module")
def corpus():
    return shifted_corpus()


def test_the_bound_exceeds_the_error_at_every_level(corpus):
    assert violations(*corpus) == []


def test_the_bound_certifies_most_damped_rows(corpus):
    # a bound that never stops a row checks nothing: at 256 intervals it is
    # below the target for most rows damped on their line, and for none
    # turned the wrong way, which it does not bound
    kappa, q, beta, depth = corpus
    with np.errstate(all="ignore"):
        line_of, row_of, decided, _ = entanglement._lines(kappa, q, beta, depth)
        terms = strips._strip_terms(kappa, q, beta, depth, line_of[:, 1], np.exp(row_of[:, 2]))
        below = strips._strip_error(*terms, 256) < strips._STRIP_TARGET
    damped = kappa * depth < 0.0
    assert below[damped & ~decided].mean() > 0.6
    assert not below[~damped].any()


def wide_packet_rows(beta):
    """The shifted rows of a z-sweep next to the angle's zero at z = 1, packet width beta."""
    radial, horizon = radial_factor(np.linspace(0.0, 1.0, 401)[1:], 0.25 + 1e-12)
    kappa, _, depth = _s_line(TAU_S * 5.0 * radial[~horizon], 0.6, beta)
    shifted = depth != 0.0
    return kappa[shifted], np.full(shifted.sum(), 0.6), np.full(shifted.sum(), beta), depth[shifted]


@pytest.mark.parametrize("rows", ["corpus", "wide-1e5"])
def test_rows_the_bound_stops_on_two_lines_agree_within_both_bounds(corpus, rows):
    # by Cauchy's theorem a row's value does not depend on its line's
    # depth.  The nested reference above shares the rule's nodes, and so
    # their rounding; two lines share none, so this holds the bound's
    # rounding allowance too.  Without its |kappa| ulps, rows of the wide
    # packet (|kappa| up to 1e7) break it by a factor of 400
    kappa, q, beta, depth = corpus if rows == "corpus" else wide_packet_rows(1e5)
    values, bounds, stopped = [], [], []
    for line in (depth, 0.6 * depth):
        out = batch_characteristic(kappa, q, beta, line)
        with np.errstate(all="ignore"):
            strip = entanglement._lines(kappa, q, beta, line)[3]
        values.append(out.values)
        bounds.append(out.residual)
        stopped.append((out.nodes == strip[:, 0]) & (out.status == CONVERGED))
    both = stopped[0] & stopped[1]
    assert both.sum() > 30
    gap = np.abs(values[0] - values[1]).max(axis=1)[both]
    assert (gap <= (bounds[0] + bounds[1])[both]).all()


def doubled_width(real):
    def terms(*args):
        strips, rate, rest = real(*args)
        return strips, 2.0 * rate, rest
    return terms


@pytest.mark.parametrize("fault", ["doubled-a", "M-without-e^G", "flipped-damping"])
def test_planted_faults_break_the_bound(monkeypatch, corpus, fault):
    if fault == "doubled-a":
        monkeypatch.setattr(strips, "_strip_terms", doubled_width(strips._strip_terms))
    elif fault == "M-without-e^G":
        monkeypatch.setattr(strips, "_weight_peak", lambda sin_d, cos_2d, q, beta: 0.0 * sin_d)
    else:
        real = strips._damping
        monkeypatch.setattr(strips, "_damping", lambda *args: -real(*args))
    assert len({row for row, _ in violations(*corpus)}) >= 10


def test_a_row_stops_at_the_first_level_its_bound_certifies(corpus):
    # _lines reports the first level below the target and the bound there;
    # batch_characteristic stops the row no later, and where the bound
    # stopped it, reports the bound as its residual with status CONVERGED
    kappa, q, beta, depth = corpus
    with np.errstate(all="ignore"):
        line_of, row_of, decided, strip = entanglement._lines(kappa, q, beta, depth)
        terms = strips._strip_terms(kappa, q, beta, depth, line_of[:, 1], np.exp(row_of[:, 2]))
        bounds = np.stack([strips._strip_error(*terms, n)
                           for n in (32, 64, 128, 256, 512, 1024, 2048)], axis=1)
    below = bounds < strips._STRIP_TARGET
    first = np.where(below.any(axis=1), 32 * 2.0 ** below.argmax(axis=1), math.inf)
    first[decided] = math.inf
    assert strip[:, 0].tolist() == first.tolist()
    certified = np.isfinite(first)
    at_first = bounds[certified, below[certified].argmax(axis=1)]
    assert strip[certified, 1].tolist() == at_first.tolist()
    assert np.isinf(strip[~certified, 1]).all()
    out = batch_characteristic(kappa, q, beta, depth)
    assert (out.nodes[certified] <= first[certified]).all()
    by_bound = certified & (out.nodes == first)
    assert by_bound.sum() > 50
    assert (out.status[by_bound] == CONVERGED).all()
    assert out.residual[by_bound].tolist() == strip[by_bound, 1].tolist()
    assert (out.residual[by_bound] < strips._STRIP_TARGET).all()


# Per preset: the final interval counts of batch_characteristic's rows (0:
# decided by the modulus bound) and the nodes they evaluated.  Before the
# strip bound stopped rows, presets 1 and 2 evaluated 19,489 and 31,996
# nodes, with 36 and 98 rows at 256 intervals.  The z- and tau-sweeps of
# presets 3-6 form no bound (certify is false for rows that share their
# line).  They had {64: 1258, 128: 315, 256: 13} and 122,574 nodes, and
# preset 1 14,433, before the real line took every row its 128-interval rule
# clears (_s_line): the rows at 128 intervals fell from 234 to none in
# preset 3 and from 81 to 39 in presets 4-6, to 64 on the real line.
PRESET_LEVELS = {
    1: ({0: 241, 32: 14, 64: 71, 128: 74}, 14305),
    2: ({0: 204, 32: 38, 64: 47, 128: 53, 256: 58}, 25660),
    3: ({64: 400}, 25200),
    4: ({64: 396, 128: 3, 256: 1}, 25584),
    5: ({0: 5, 64: 375, 128: 14, 256: 5}, 26678),
    6: ({0: 7, 64: 363, 128: 22, 256: 7}, 27448),
}


@pytest.mark.parametrize("n", sorted(PRESET_LEVELS))
def test_presets_keep_their_levels_and_node_count(monkeypatch, n):
    averages = []
    real = experiments.batch_characteristic

    def characteristic(*args):
        averages.append(real(*args))
        return averages[-1]

    monkeypatch.setattr(experiments, "batch_characteristic", characteristic)
    run_sweep(figure_preset(n))
    (out,) = averages
    levels, counts = np.unique(out.nodes, return_counts=True)
    histogram, evaluated = PRESET_LEVELS[n]
    assert dict(zip(levels.tolist(), counts.tolist())) == histogram
    assert int((out.nodes[out.nodes > 0] - 1).sum()) == evaluated
