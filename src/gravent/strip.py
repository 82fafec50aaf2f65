"""The strip bound: a proof that a shifted row's trapezoid rule has converged.

batch_characteristic averages a fast row along a line s = t + i d in
s = asinh p.  Its integrand is analytic in a strip of depths around the
line, so the error of the rule of interval h is bounded by the integrand's
size on the strip's edges (Trefethen & Weideman, SIAM Review 56, 2014,
Thm 5.1).  _strip_terms forms that bound in closed form from the row's
kappa, q, beta and line; _strip_levels finds the first level of the rule
at which it is below _STRIP_TARGET, where the row may stop without a
second level to agree with.  entanglement._lines loads it on the first
call whose rows have lines of their own (batch_characteristic).
"""

from __future__ import annotations

import math

import numpy as np

from .entanglement import _DROPPED, _FIRST_IN_S, _HALF_WIDTH, _damping, _weight_peak

# A shifted row stops at the first level whose strip bound (_strip_error) is
# below this, a thousandth of entanglement.TOL: there it need not wait for
# the next level to agree with it.
_STRIP_TARGET = 1e-13

# The strip bound's depths, as multiples of a line's |d| on its side of the
# real axis (negative: past it); each neighbouring pair bounds a piece.
# Toward the axis, the strips 3/2, 1 and 1/4 of |d| wide take in the pieces
# from the first three up to the third; deeper, those 1 and 3/2 wide the
# fourth and the fourth and fifth.
_STRIP_DEPTHS = np.array([-0.5, 0.0, 0.75, 1.0, 2.0, 2.5])
_STRIP_WIDTHS = np.array([1.5, 1.0, 0.25, 1.0, 1.5])
_STRIP_RATES = (2.0 * math.pi / (2.0 * _HALF_WIDTH)) * _STRIP_WIDTHS  # 2 pi a/(n h) per |d|/half
_STRIP_LEVELS = _FIRST_IN_S * 2.0 ** np.arange(16)

# The band |v - centre| < 3 width of the weight's Gaussian in v = sinh x,
# and beyond it to 6.5 widths, over which the damping is bounded, with the
# Gaussian's mass beyond each band's inner edge (erfc) and beyond the last.
_BAND_EDGES = np.array([3.0, 6.5])
_BAND_MASS = math.erfc(3.0)
_TAIL_MASS = math.erfc(6.5)

# The rounding of a row's estimate is taken as (_ROUNDING_ULPS + |kappa|)
# ulps of its line's integral of |integrand|: each node's phase kappa du
# carries an error of order |kappa| ulps.  Rows stopped by the bound on two
# lines of one seeded corpus, and wide packets to beta = 4.3e7, differed
# by at most 0.14 of the two bounds.
_ROUNDING_ULPS = 16.0
_EPS = float(np.finfo(float).eps)

# The rest of the strip bound that no row's numbers move: the dropped nodes,
# at most 2047 of them each below e^{_DROPPED} over sqrt(pi), and the 1e-20
# by which the nodes of e^{-t^2} miss sqrt(pi).
_REST = 2.0 * _HALF_WIDTH * math.exp(_DROPPED) / math.sqrt(math.pi) + 1e-20


def _strip_terms(kappa, q, beta, depth, half, at_end):
    """Per shifted row, what bounds its rule's error: M of each strip, their rates and the rest.

    The rows are those of batch_characteristic, with their lines' half and
    e^{log_bound} (entanglement._lines); q and beta are scalars or arrays
    of the rows' shape.  The integrand F(t) of a row's rule is analytic
    where |Im s| < pi/4, and moving t by i y moves its line to depth D =
    d + half y.  Its Fourier transform at frequencies of either sign is
    bounded by moving the line to one side, so the rule of interval h on
    the whole line errs by at most

        M+/(e^{2 pi a+/h} - 1) + M-/(e^{2 pi a-/h} - 1)

    (the two halves of Trefethen & Weideman, SIAM Review 56, 2014, Thm
    5.1), where M+- bounds the integral of |F| on every line between the
    row's and a+- half deeper or nearer the real axis, a+- half = theta
    |d| for the _STRIP_WIDTHS theta.  Against e^{-t^2}, whose nodes sum to
    sqrt(pi) within 1e-20, the estimate errs by that over sqrt(pi).  In
    v = sinh x,

        |F| dt <= e^{Im(-kappa tanh(s/2)) + w_log} dv/beta,

    w_log a Gaussian in v of peak G(D) (_weight_peak), centre q cos D/cos 2D
    and width beta/sqrt(cos 2D), whose integral is beta sqrt(pi) e^{G}/
    sqrt(cos 2D).  Between two neighbours of _STRIP_DEPTHS, G, the width
    and |centre| grow with |D| and are taken at the one of larger |D|, the
    centre's own span joining the inner band of _BAND_EDGES.  The phase
    factor's log, kappa sin D/(cosh x + cos D) (_damping), is for a row
    damped on its line (kappa sin d < 0) largest at the neighbour nearer
    the axis or past it; there, on each band, at the band's largest cosh x,
    at most 1 + |v|, and past the axis at cosh x = 1, |kappa| tan(|D|/2).
    A row turned the wrong way gets no bound (inf).

    Returns M/sqrt(pi) of the strips toward the axis, then deeper, (5,
    rows), their rates 2 pi a/(n h) = 2 pi theta |d|/(14 half), and the rest:
    the rule's nodes beyond t = +-7, where the weight is below e^{-49}, at
    32 intervals, the widest; the dropped nodes, each below e^{_DROPPED};
    and rounding, which no strip bounds, taken as _ROUNDING_ULPS + |kappa|
    ulps of the line's own integral of |F|, which the pieces next to it
    bound.  A piece that reaches |D| >= pi/4 leaves its strips nan; on
    batch_characteristic's lines, |d| <= _S_DEPTH, none does.
    Called under an errstate that ignores invalid, overflowing and zero
    divisions.
    """
    # pieces and bands lead, rows run along the last axis, contiguous in every operand
    k_d = kappa * np.sign(depth)  # kappa sin D/sin |D| on the row's side
    d = np.abs(depth)
    ends = _STRIP_DEPTHS[:, None] * d
    sin, cos = np.sin(ends), np.cos(ends)
    cos_2 = 1.0 - 2.0 * sin * sin
    root = np.sqrt(cos_2)
    centre, width = q * cos / cos_2, beta / root
    size = np.exp(_weight_peak(sin, cos_2, q, beta)) / root  # e^{G}/sqrt(cos 2D)
    outer = (1.0 + np.abs(centre)) + _BAND_EDGES[:, None, None] * width
    outer = np.maximum(outer[:, :-1], outer[:, 1:])
    outer[:, 0] = 1.0  # past the axis the phase factor peaks at cosh x = 1
    phase = _damping(k_d, sin[:-1], cos[:-1], outer)
    damped = phase[0, 2] < 0.0  # on the row's side, at 3/4 of its depth
    np.exp(phase, out=phase)
    width = np.maximum(width[:-1], width[1:])
    spread = np.abs(centre[1:] - centre[:-1]) / width
    m = phase[0] * (1.0 + spread / math.sqrt(math.pi))
    m += phase[1] * _BAND_MASS + _TAIL_MASS
    m *= np.maximum(size[:-1], size[1:])
    line = np.minimum(m[2], m[3])
    for wider, narrower in ((1, 2), (0, 1), (4, 3)):  # a strip takes in its narrower one's pieces
        np.maximum(m[wider], m[narrower], out=m[wider])
    # beyond the ends: 2 h e^{log_bound - 49} and e^{half h - 49}/(7 sqrt(cos 2d)), h = 14/32
    h = 2.0 * _HALF_WIDTH / _FIRST_IN_S
    beyond = (2.0 * h * math.exp(-49.0)) * at_end + np.exp(half * h - 49.0) / (7.0 * root[3])
    rest = beyond / math.sqrt(math.pi) + _REST + _EPS * (_ROUNDING_ULPS + np.abs(kappa)) * line
    rest[~damped] = math.inf
    return m, _STRIP_RATES[:, None] * (d / half), rest


def _best_strips(part):
    """Twice the larger of the two sides' smallest parts (toward the axis, deeper), nan skipped."""
    axis = np.fmin(np.fmin(part[0], part[1]), part[2])
    return 2.0 * np.maximum(axis, np.fmin(part[3], part[4]))


def _strip_error(strips, rate, rest, n):
    """The strip bound on each row's |estimate - phi| at n intervals, from _strip_terms: (rows,).

    Twice the larger of the two sides' best strips, plus the rest.  n is a
    count, or one per row.
    """
    return _best_strips(strips / np.expm1(rate * n)) + rest


def _strip_levels(strips, rate, rest, cap):
    """Per row, the first level 32 * 2^k up to cap whose _strip_error is below target, and it.

    Below the target each side's best strip is below tau, half of what
    the rest leaves, which a strip of M and rate is from n > log1p(M/tau)/
    rate on.  Returns (rows, 2), inf and inf where no level is.
    """
    tau = 0.5 * (_STRIP_TARGET - rest)  # where it is not positive, the bound's test below fails
    need = 0.5 * _best_strips(np.log1p(strips / tau) / rate)
    levels = _STRIP_LEVELS[:int(math.log2(cap // _FIRST_IN_S)) + 1]
    out = np.empty((2,) + rest.shape)
    out[0] = np.append(levels, math.inf)[np.searchsorted(levels, need, side="right")]
    out[1] = _strip_error(strips, rate, rest, out[0])
    out[:, ~(out[1] < _STRIP_TARGET)] = math.inf  # and no level that rounding put on the wrong side
    return out.T
