"""One generator per Monte Carlo worker, the exponential route of the
standardized gamma at shape 1, and the cap on the workers a call starts.

Re-keying a worker's generator gives the draws of a fresh
_substream(seed, j), bit for bit, for every law, at any seed and index and
from 1, 2 or 3 threads at once; standard_exponential equals
standard_gamma(1.0) draw for draw; and monte_carlo starts
min(threads, chunks, usable CPUs) workers, checked with a patched affinity
mask and an executor stub that starts no thread.
"""

import logging
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gmanova import (
    CovarianceSpec,
    ErrorDistribution,
    MeanModel,
    monte_carlo,
    one_way_manova,
)
from gmanova import simulate
from gmanova.simulate import _rekeyed, _substream, replication_sampler

LAWS = (ErrorDistribution.gaussian(), ErrorDistribution.elliptical_t(7.0),
        ErrorDistribution.standardized_gamma(1.5), ErrorDistribution.standardized_gamma(1.0),
        ErrorDistribution.rademacher())
SEEDS = (0, 7, -5, 2 ** 63 + 12345, 2 ** 70 + 3)
INDICES = (0, 1, 2, 2 ** 32, 2 ** 32 + 7, 2 ** 64 - 1)


@pytest.mark.parametrize("dist", LAWS, ids=lambda d: f"{d.kind}-{d.shape}")
def test_a_rekeyed_generator_is_the_fresh_substream(dist):
    local = threading.local()
    for seed in SEEDS:
        for j in INDICES:
            got = dist.sample(_rekeyed(local, seed, j), 5, 4)
            assert np.array_equal(got, dist.sample(_substream(seed, j), 5, 4))


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("dist", LAWS, ids=lambda d: f"{d.kind}-{d.shape}")
def test_sampler_draws_are_the_substream_draws_from_any_thread(monkeypatch, dist, threads):
    """A sampler shared by 1, 2 or 3 threads switching every 10 us, each
    re-keying its own generator across seeds and indices, draws what a
    sampler building a fresh _substream per replication draws."""
    p = 6
    design = one_way_manova((4, 5), p).design
    model = MeanModel(np.zeros((design.k, design.q)),
                      (np.diag(np.linspace(1.0, 2.0, p)),
                       CovarianceSpec(kind="ar1", rho=0.5).matrix(p)))
    keys = [(seed, j) for j in INDICES for seed in SEEDS] * 3
    draw = replication_sampler(design, model, [dist] * design.g)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            got = list(pool.map(lambda key: draw(*key), keys, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(simulate, "_rekeyed", lambda local, seed, j: _substream(seed, j))
    fresh = replication_sampler(design, model, [dist] * design.g)
    for key, X in zip(keys, got):
        assert np.array_equal(X, fresh(*key))


@pytest.mark.parametrize("shape", [(1, 1), (7, 9), (50, 3), (3, 200)])
def test_gamma_at_shape_one_is_the_exponential_route(shape):
    """At shape 1 the draws, written into a view of a larger buffer, are
    bitwise standard_gamma(1.0) - 1."""
    n, p = shape
    want = np.random.Generator(np.random.Philox(11)).standard_gamma(1.0, size=shape) - 1.0
    buf = np.full((n + 2, p), np.nan)
    got = ErrorDistribution.standardized_gamma(1.0).sample(
        np.random.Generator(np.random.Philox(11)), n, p, out=buf[1:n + 1])
    assert np.shares_memory(got, buf)
    assert np.array_equal(buf[1:n + 1], want)
    assert np.all(np.isnan(buf[0])) and np.all(np.isnan(buf[-1]))


class _Executor:
    """Stands in for ThreadPoolExecutor: records max_workers and runs the
    chunks in the calling thread."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def three_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _Executor.started = []
    monkeypatch.setattr(simulate, "ThreadPoolExecutor", _Executor)
    return _Executor.started


def _run(design, **kw):
    model = MeanModel(np.zeros((design.k, design.q)), (np.eye(design.p),) * design.g)
    return monte_carlo(design, model, ErrorDistribution.gaussian(), reps=100, seed=4, **kw)


def test_workers_are_capped_by_chunks_and_cpus(three_cpus, monkeypatch, caplog):
    design = one_way_manova((4, 4), 3).design  # B = 64: 2 chunks of 100 reps
    with caplog.at_level(logging.INFO, logger="gmanova.simulate"):
        assert _run(design, threads=16) == _run(design, threads=1)
    assert three_cpus == [2]
    assert "threads=16 requested, 2 used" in caplog.records[-2].getMessage()

    monkeypatch.setattr(simulate, "BATCH_BYTES", 1)  # B = 1: 100 chunks
    serial = _run(design, threads=1)
    assert _run(design, threads=16) == serial
    monkeypatch.setenv("GMANOVA_THREADS", "100000")
    assert _run(design) == serial
    assert three_cpus == [2, 3, 3]


def test_one_worker_runs_in_the_calling_thread(three_cpus, monkeypatch):
    design = one_way_manova((4, 4), 3).design
    _run(design, threads=1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2}, raising=False)
    _run(design, threads=8)
    assert three_cpus == []
