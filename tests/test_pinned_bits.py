"""Pinned bits of a seeded off-preset corpus.

The hot path's bookkeeping may change only in ways that keep every
output bit.  These digests hold the rows of 300 perturbed sweeps over
all six presets, and the Averages of batch_characteristic batches that
mix the real line, shifted lines, decided rows and non-finite kappa, as
the quadrature computed them when each level still formed all of its
temporaries in full.  The large batches, 1,200 rows each, run several
blocks per level, a short last block joining the one before, as only the
presets do among the sweeps; their digest was taken before a shared
line's tables were formed once per level and line of a call.  The sweep
digest was taken again once a row ran on the real line wherever that
line's 128-interval rule clears its turn: 2,019 of its 18,000 rows moved,
C and S by at most 3.0e-16, K and E by at most 8.3e-17, and no flag.  A change
that moves one bit of one row changes a digest; one that means to must
say which numbers moved and pin the new digests.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np

from gravent import batch_characteristic, figure_preset, run_sweep

SWEEPS_PER_PRESET = 50
SAMPLES = 60

SWEEP_DIGEST = "a0f7b73357551a7a837d378667ab0799f507c65d9f9fd4f2c33a3832661993ea"
BATCH_DIGEST = "7c23defc9095bd65d27c3d4888d76960997102dee6f5234811c5f90bef6cbe97"
LARGE_BATCH_DIGEST = "c3fcf5900002c9b8443ea7a17a52339909dff1f9d5e6d455ffad26ec732563c2"


def corpus_sweeps(seed: int = 24):
    """50 sweeps of 60 rows around each preset: fixed values within 15%, a random window."""
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        spec = figure_preset(n)
        for i in range(SWEEPS_PER_PRESET):
            fixed = {key: getattr(spec.fixed, key) * rng.uniform(0.85, 1.15)
                     for key in ("xi2", "z", "q", "beta", "tau_ratio")
                     if key != spec.variable}
            span = spec.hi - spec.lo
            lo, hi = spec.lo + 0.3 * span * rng.uniform(), spec.hi - 0.3 * span * rng.uniform()
            yield replace(spec, lo=lo, hi=hi, samples=SAMPLES,
                          fixed=replace(spec.fixed, **fixed)), i % 2 == 1


def corpus_batches(seed: int = 24):
    """(kappa, q, beta, depth) batches: per-row and shared centres, every kind of row."""
    rng = np.random.default_rng(seed)
    size = 160
    kappa = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-2.0, 5.0, size)
    kappa[:6] = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e300]
    depth = np.where(rng.uniform(size=size) < 0.5, 0.0, -np.sign(kappa) * rng.uniform(0.05, 0.3, size))
    depth[5] = 0.0
    depth[rng.uniform(size=size) < 0.1] *= -1.0  # some shifted rows turned the wrong way
    q = rng.uniform(-30.0, 30.0, size)
    beta = 10.0 ** rng.uniform(-1.0, 1.0, size)
    yield kappa, q, beta, depth
    yield kappa, 0.6, 1.3, np.where(depth == 0.0, 0.0, np.where(depth < 0.0, -0.25, 0.2))


def corpus_large_batches(seed: int = 27):
    """Two batches of 1,200 rows, one with a centre per row, one with a shared centre."""
    rng = np.random.default_rng(seed)
    size = 1200
    kappa = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-2.0, 4.0, size)
    depth = np.where(rng.uniform(size=size) < 0.5, 0.0, -np.sign(kappa) * rng.uniform(0.05, 0.3, size))
    q = rng.uniform(-20.0, 20.0, size)
    beta = 10.0 ** rng.uniform(-1.0, 1.0, size)
    yield kappa, q, beta, depth
    kappa = np.sort(kappa)  # one line per sign of kappa, so most blocks share one
    yield kappa, 0.6, 1.0, np.where(depth == 0.0, 0.0, -np.sign(kappa) * 0.3)


def digest_of_sweeps() -> str:
    h = hashlib.sha256()
    for spec, stationary_phase in corpus_sweeps():
        h.update(repr(run_sweep(spec, stationary_phase)).encode())
    return h.hexdigest()


def digest_of_batches(batches=corpus_batches) -> str:
    h = hashlib.sha256()
    for kappa, q, beta, depth in batches():
        out = batch_characteristic(kappa, q, beta, depth)
        for array in (out.values, out.residual, out.nodes.astype("<i8"), out.status.astype("<i8")):
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def test_off_preset_sweeps_keep_their_bits():
    assert digest_of_sweeps() == SWEEP_DIGEST


def test_batch_characteristic_keeps_its_bits():
    assert digest_of_batches() == BATCH_DIGEST


def test_large_batch_characteristic_batches_keep_their_bits():
    assert digest_of_batches(corpus_large_batches) == LARGE_BATCH_DIGEST
