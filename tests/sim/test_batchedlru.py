"""BatchedLRU vs the scalar CacheSim — bit-for-bit differential tests.

The batched planner's cache verdicts come from
:class:`repro.sim.cache.BatchedLRU`, which replaces the per-access Python
loop with a closed-form LRU stack-distance computation (associativities up
to 4) or a generational state-matrix replay (above 4).  Both paths must
reproduce the scalar simulator's hit/miss verdicts AND final cache state
exactly, including under warm-start seeding.

Large closed-form batches replay as shards on a thread pool;
:class:`TestShardedReplay` reruns the differential tests with the shard
threshold forced down to one access so that path runs at small scale.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import numpy as np
import pytest

import repro.sim.cache as cache_mod
from repro.sim.cache import BatchedLRU, CacheSim


def _scalar_reference(lines, n_sets, assoc, seed_sets=None):
    """Per-access verdicts + final state from a hand-rolled scalar LRU."""
    sets = (
        [list(s) for s in seed_sets]
        if seed_sets is not None
        else [[] for _ in range(n_sets)]
    )
    hits = np.zeros(len(lines), dtype=bool)
    for k, line in enumerate(lines):
        s = int(line) % n_sets
        tag = int(line) // n_sets
        ways = sets[s]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            hits[k] = True
        else:
            ways.append(tag)
            if len(ways) > assoc:
                ways.pop(0)
    return hits, sets


def _random_trace(rng, n, hot_lines):
    """A skewed trace: mostly a hot set, with a uniform cold tail."""
    hot = rng.integers(0, hot_lines, size=n)
    cold = rng.integers(0, hot_lines * 64, size=n)
    pick = rng.random(n) < 0.75
    return np.where(pick, hot, cold).astype(np.int64)


GEOMETRIES = [
    (16, 1),  # direct-mapped
    (64, 2),  # the client dcache shape (8KB/4way/32B -> 64 sets, but 2-way here)
    (64, 4),  # the client dcache associativity
    (256, 2),  # the server L1 shape
    (8, 3),  # odd associativity (closed-form second case)
    (8, 5),  # generational fallback
    (4, 8),  # generational fallback, deep sets
]


@pytest.mark.parametrize("n_sets,assoc", GEOMETRIES)
def test_cold_start_matches_scalar(n_sets, assoc):
    rng = np.random.default_rng(n_sets * 100 + assoc)
    batch = BatchedLRU()
    traces = [_random_trace(rng, rng.integers(1, 2000), n_sets * assoc * 2)
              for _ in range(5)]
    handles = [batch.add_stream(t, n_sets, assoc) for t in traces]
    batch.run()
    for h, t in zip(handles, traces):
        ref_hits, ref_sets = _scalar_reference(t, n_sets, assoc)
        assert np.array_equal(batch.hits_of(h), ref_hits)
        assert batch.final_sets(h) == ref_sets


@pytest.mark.parametrize("n_sets,assoc", GEOMETRIES)
def test_warm_seed_matches_scalar(n_sets, assoc):
    rng = np.random.default_rng(7000 + n_sets * 10 + assoc)
    warm = _random_trace(rng, 500, n_sets * assoc * 2)
    work = _random_trace(rng, 800, n_sets * assoc * 2)
    _, seed = _scalar_reference(warm, n_sets, assoc)

    batch = BatchedLRU()
    h = batch.add_stream(work, n_sets, assoc, seed_sets=[list(s) for s in seed])
    batch.run()
    ref_hits, ref_sets = _scalar_reference(work, n_sets, assoc, seed_sets=seed)
    assert np.array_equal(batch.hits_of(h), ref_hits)
    assert batch.final_sets(h) == ref_sets


def test_matches_cachesim_class(n_sets=64, assoc=4, line_bytes=32):
    """End-to-end against the production CacheSim, not just the reference."""
    rng = np.random.default_rng(42)
    lines = _random_trace(rng, 3000, n_sets * assoc * 2)
    sim = CacheSim(n_sets * assoc * line_bytes, assoc, line_bytes)
    scalar_hits = np.array([sim.access_line(int(l)) for l in lines])

    batch = BatchedLRU()
    h = batch.add_stream(lines, n_sets, assoc)
    batch.run()
    assert np.array_equal(batch.hits_of(h), scalar_hits)
    assert batch.final_sets(h) == sim._sets


def test_mixed_geometries_one_batch():
    """Streams with different geometries (closed-form + fallback triggers)."""
    rng = np.random.default_rng(9)
    specs = [(16, 1), (64, 4), (256, 2), (8, 3)]
    batch = BatchedLRU()
    traces = []
    for n_sets, assoc in specs:
        t = _random_trace(rng, 1200, n_sets * assoc * 2)
        traces.append((batch.add_stream(t, n_sets, assoc), t, n_sets, assoc))
    batch.run()
    for h, t, n_sets, assoc in traces:
        ref_hits, ref_sets = _scalar_reference(t, n_sets, assoc)
        assert np.array_equal(batch.hits_of(h), ref_hits)
        assert batch.final_sets(h) == ref_sets


def test_repeat_heavy_trace_dup_collapse():
    """Immediate same-line repeats (the collapse fast path) stay exact."""
    rng = np.random.default_rng(5)
    base = _random_trace(rng, 200, 64)
    lines = np.repeat(base, rng.integers(1, 6, size=len(base)))
    batch = BatchedLRU()
    h = batch.add_stream(lines, 16, 2)
    batch.run()
    ref_hits, ref_sets = _scalar_reference(lines, 16, 2)
    assert np.array_equal(batch.hits_of(h), ref_hits)
    assert batch.final_sets(h) == ref_sets


def test_empty_and_tiny_traces():
    batch = BatchedLRU()
    h0 = batch.add_stream(np.empty(0, dtype=np.int64), 16, 2)
    h1 = batch.add_stream(np.array([7]), 16, 2)
    h2 = batch.add_stream(np.array([7, 7]), 16, 2)
    batch.run()
    assert batch.hits_of(h0).size == 0
    assert np.array_equal(batch.hits_of(h1), [False])
    assert np.array_equal(batch.hits_of(h2), [False, True])


def test_api_misuse_raises():
    batch = BatchedLRU()
    batch.add_stream(np.array([1, 2, 3]), 16, 2)
    batch.run()
    with pytest.raises(RuntimeError):
        batch.run()
    with pytest.raises(RuntimeError):
        batch.add_stream(np.array([1]), 16, 2)
    with pytest.raises(ValueError):
        BatchedLRU().add_stream(np.array([1]), 0, 2)
    with pytest.raises(ValueError):
        BatchedLRU().add_stream(np.array([1]), 16, 2, seed_sets=[[]])


@pytest.fixture
def sharded(monkeypatch):
    """Every closed-form stream replays as its own shard."""
    monkeypatch.setattr(cache_mod, "_PARALLEL_MIN_ACCESSES", 1)


@pytest.mark.usefixtures("sharded")
class TestShardedReplay:
    """The differential tests above, on the sharded replay path."""

    test_cold_start_matches_scalar = staticmethod(test_cold_start_matches_scalar)
    test_warm_seed_matches_scalar = staticmethod(test_warm_seed_matches_scalar)
    test_mixed_geometries_one_batch = staticmethod(
        test_mixed_geometries_one_batch
    )
    test_repeat_heavy_trace_dup_collapse = staticmethod(
        test_repeat_heavy_trace_dup_collapse
    )
    test_empty_and_tiny_traces = staticmethod(test_empty_and_tiny_traces)


@pytest.fixture
def own_pool(monkeypatch):
    """A fresh two-worker shard pool, whatever this host's CPU count."""
    monkeypatch.setattr(cache_mod, "_pool", None)
    monkeypatch.setattr(
        cache_mod.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    yield
    if cache_mod._pool is not None:
        cache_mod._pool.shutdown(wait=True)


def test_sharded_oversized_seed_raises_after_every_shard(
    sharded, own_pool, monkeypatch
):
    """A bad seed fails ``run()`` only once no shard is still replaying."""
    finished = []
    replay = BatchedLRU._closed_form_class

    def tracked(self, streams, W, hits):
        try:
            replay(self, streams, W, hits)
        finally:
            finished.append(len(streams))

    monkeypatch.setattr(BatchedLRU, "_closed_form_class", tracked)
    rng = np.random.default_rng(11)
    batch = BatchedLRU()
    bad = [[] for _ in range(64)]
    bad[3] = [1, 2, 3, 4, 5]
    # Largest stream, so its shard is submitted (and fails) first.
    batch.add_stream(_random_trace(rng, 6000, 512), 64, 4, seed_sets=bad)
    for _ in range(4):
        batch.add_stream(_random_trace(rng, 3000, 512), 64, 4)
    with pytest.raises(ValueError, match="exceeds associativity"):
        batch.run()
    assert len(finished) == 5


def test_small_batch_replays_one_universe_per_class_inline(monkeypatch):
    """Under twice the shard threshold both classes replay on the caller."""
    ran = []
    replay = BatchedLRU._closed_form_class

    def tracked(self, streams, W, hits):
        ran.append((threading.get_ident(), [s["assoc"] for s in streams]))
        replay(self, streams, W, hits)

    monkeypatch.setattr(BatchedLRU, "_closed_form_class", tracked)
    rng = np.random.default_rng(19)
    batch = BatchedLRU()
    for n_sets, assoc in [(64, 4), (256, 2), (64, 4), (256, 2)]:
        batch.add_stream(_random_trace(rng, 2000, 1024), n_sets, assoc)
    batch.run()
    me = threading.get_ident()
    assert ran == [(me, [2, 2]), (me, [4, 4])]


def test_one_cpu_runs_shards_inline_largest_first(sharded, monkeypatch):
    """Without a second CPU no pool is made; shards run in-line, big first."""
    monkeypatch.setattr(cache_mod, "_pool", None)
    monkeypatch.setattr(
        cache_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False
    )
    ran = []
    replay = BatchedLRU._closed_form_class

    def tracked(self, streams, W, hits):
        ran.append((threading.get_ident(), sum(s["lines"].size for s in streams)))
        replay(self, streams, W, hits)

    monkeypatch.setattr(BatchedLRU, "_closed_form_class", tracked)
    rng = np.random.default_rng(17)
    traces = [_random_trace(rng, n, 512) for n in (300, 900, 600)]
    batch = BatchedLRU()
    handles = [batch.add_stream(t, 64, 4) for t in traces]
    batch.run()
    assert cache_mod._pool is None
    assert [n for _, n in ran] == [900, 600, 300]
    assert {tid for tid, _ in ran} == {threading.get_ident()}
    for h, t in zip(handles, traces):
        ref_hits, ref_sets = _scalar_reference(t, 64, 4)
        assert np.array_equal(batch.hits_of(h), ref_hits)
        assert batch.final_sets(h) == ref_sets


def _replay_pair(streams):
    """Replay ``streams`` through one batch; verdicts and final sets."""
    batch = BatchedLRU()
    handles = [batch.add_stream(t, 64, 4) for t in streams]
    batch.run()
    return [(batch.hits_of(h).copy(), batch.final_sets(h)) for h in handles]


def test_concurrent_replays_are_independent():
    """Two threads replaying their own large batches at once stay exact.

    Each batch is big enough to take the sharded path; scratch buffers
    shared between the threads would corrupt verdicts or the heap.
    """
    rng = np.random.default_rng(23)
    stream_len = 60_000
    jobs = [
        [_random_trace(rng, stream_len, 512) for _ in range(2)]
        for _ in range(2)
    ]
    results = [None, None]

    def work(k):
        results[k] = _replay_pair(jobs[k])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for streams, got in zip(jobs, results):
        assert got is not None
        for t, (hits, sets) in zip(streams, got):
            ref_hits, ref_sets = _scalar_reference(t, 64, 4)
            assert np.array_equal(hits, ref_hits)
            assert sets == ref_sets
    assert stream_len >= cache_mod._PARALLEL_MIN_ACCESSES  # took the pool


def _child_replay(lines, conn):
    conn.send(_replay_pair([lines, lines[::-1].copy()]))
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_sharded_replay_in_forked_child(sharded):
    """A child forked after a sharded run gets a working pool of its own."""
    rng = np.random.default_rng(31)
    lines = _random_trace(rng, 4000, 512)
    _replay_pair([lines, lines[::-1].copy()])  # parent's pool now exists
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_replay, args=(lines, send))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "forked child sent no result"
        got = recv.recv()
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    for t, (hits, sets) in zip([lines, lines[::-1]], got):
        ref_hits, ref_sets = _scalar_reference(t, 64, 4)
        assert np.array_equal(hits, ref_hits)
        assert sets == ref_sets
