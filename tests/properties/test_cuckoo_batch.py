"""Batch/scalar parity of the cuckoo flow table under adversarial load.

``CuckooFlowTable.insert_batch`` resolves a window of inserts once and
walks it: resolved refreshes and placements land as vectorized writes
(new keys sharing a bucket take successive free slots), and an insert that
kicks, reaches the growth threshold, or depends on a slot a write could
turn between free and live goes through the scalar ``insert``; later
inserts touching a bucket that write touched go scalar too, and a purge
or grow ends the walk.  ``_grow`` rehashes through the same engine.

The reference is a scalar insert loop on a table that rehashes with the
original per-entry ``_insert`` loop, so both engines are pinned against
sequential semantics.  Tiny tables, few slots, short lifetimes, repeated
keys and high load make every one of those cases common; the table must
end byte-identical (state digest) with identical counters.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.cuckoo import CuckooFlowTable, pack_flow


class ScalarRehashTable(CuckooFlowTable):
    """Reference table: ``_grow`` moves live entries one ``_insert`` at a
    time, in the old layout's order."""

    __slots__ = ()

    def _grow(self, now, cause):
        if self._order >= self._max_order:
            return
        old_lo, old_hi, old_stamp = self._key_lo, self._key_hi, self._stamp
        self._order += 1
        self._alloc()
        self.grows += 1
        self.grow_causes[cause] += 1
        live = old_stamp > now - self._lifetime
        for lo, hi, ts in zip(old_lo[live].tolist(), old_hi[live].tolist(),
                              old_stamp[live].tolist()):
            self._insert(lo, hi, ts, now)


def assert_same_table(batch, scalar):
    assert batch.state_digest() == scalar.state_digest()
    assert batch.occupancy == scalar.occupancy
    assert batch.order == scalar.order
    assert batch.counters() == scalar.counters()
    assert batch.grow_causes == scalar.grow_causes


def replay(geometry, lo, hi, ts, warm=0):
    """(batch table, scalar reference) after the same inserts."""
    scalar = ScalarRehashTable(**geometry)
    batch = CuckooFlowTable(**geometry)
    # A pre-populated table: the script meets present, expired and
    # foreign entries in its buckets.
    for i in range(warm):
        key = pack_flow(17, 0xAC110000 + i, 53, 0x01010101 + i)
        scalar.insert(*key, 0.1 * i - 5.0)
        batch.insert(*key, 0.1 * i - 5.0)
    for i in range(len(lo)):
        scalar.insert(int(lo[i]), int(hi[i]), float(ts[i]))
    batch.insert_batch(lo, hi, ts)
    return batch, scalar


@st.composite
def tables(draw):
    order = draw(st.integers(2, 5))
    return dict(
        order=order,
        slots_per_bucket=draw(st.integers(1, 4)),
        lifetime=draw(st.sampled_from([0.5, 2.0, 10.0, 1e9])),
        max_order=draw(st.integers(order, order + 3)),
        grow_at=draw(st.sampled_from([0.5, 0.85, 1.0])),
        max_kick_nodes=draw(st.sampled_from([4, 64])),
    )


@st.composite
def insert_scripts(draw):
    """(lo, hi, ts) arrays: keys from a small pool (so repeats refresh),
    timestamps non-decreasing with gaps that expire entries."""
    pool = draw(st.integers(1, 120))
    count = draw(st.integers(1, 400))
    keys = [pack_flow(6, 0xAC100000 + k, 1000 + k, 0x08080000 + 7 * k)
            for k in draw(st.lists(st.integers(0, pool - 1),
                                   min_size=count, max_size=count))]
    gaps = draw(st.lists(st.sampled_from([0.0, 0.01, 0.3, 1.5]),
                         min_size=count, max_size=count))
    lo = np.array([k[0] for k in keys], dtype=np.uint64)
    hi = np.array([k[1] for k in keys], dtype=np.uint64)
    return lo, hi, np.cumsum(gaps)


@given(geometry=tables(), script=insert_scripts(), warm=st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_insert_batch_matches_scalar_inserts(geometry, script, warm):
    lo, hi, ts = script
    assert_same_table(*replay(geometry, lo, hi, ts, warm))


@st.composite
def high_load(draw):
    """Geometry plus a long, mostly-new key script that fills the table
    past its growth threshold several times: same-bucket placements,
    mid-window kicks and grows are all common.  In the "steady" timing
    about a threshold's worth of keys arrives per lifetime into a table
    that may not grow, so nearly every new key reaches the threshold and
    its purge often frees just the one entry that expired meanwhile
    (occupancy unchanged), and repeats of keys one lifetime back come
    right after theirs was purged."""
    order = draw(st.integers(4, 8))
    geometry = dict(
        order=order,
        slots_per_bucket=draw(st.integers(1, 4)),
        lifetime=draw(st.sampled_from([0.2, 1.0, 4.0, 1e9])),
        max_order=draw(st.integers(order, order + 3)),
        grow_at=draw(st.sampled_from([0.85, 0.9, 0.95, 1.0])),
        max_kick_nodes=draw(st.sampled_from([2, 4, 8])),
    )
    count = draw(st.integers(50, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    threshold = geometry["grow_at"] * (geometry["slots_per_bucket"] << order)
    ids = np.arange(count)
    repeat = rng.random(count) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    back = draw(st.sampled_from(["any", "recent"]))
    if back == "any":
        ids[repeat] = (rng.random(int(repeat.sum())) * ids[repeat]).astype(int)
    else:
        # About one lifetime back in the "steady" timing: keys that have
        # just expired, or are about to.
        ids[repeat] = np.maximum(0, ids[repeat] - rng.integers(
            int(0.8 * threshold), int(1.2 * threshold) + 2,
            int(repeat.sum())))
    lo, hi = zip(*(pack_flow(6, 0xAC100000 + k, 1000 + k % 50000,
                             0x08080000 + 7 * k) for k in ids.tolist()))
    timing = draw(st.sampled_from(["burst", "fast", "slow", "steady"]))
    step = {"burst": 0.0, "fast": 0.001, "slow": 0.01,
            "steady": geometry["lifetime"] / threshold}[timing]
    if timing == "steady":
        geometry["max_order"] = order      # purge, never grow
    ts = np.cumsum(rng.exponential(step, count) if step else np.zeros(count))
    return (geometry, np.array(lo, dtype=np.uint64),
            np.array(hi, dtype=np.uint64), ts)


@given(case=high_load())
@settings(max_examples=60, deadline=None)
def test_insert_batch_matches_scalar_under_high_load(case):
    geometry, lo, hi, ts = case
    assert_same_table(*replay(geometry, lo, hi, ts))


class CountingTable(CuckooFlowTable):
    """Counts the inserts that went through the scalar ``insert``."""

    __slots__ = ("scalar_inserts",)

    def __init__(self, **geometry):
        super().__init__(**geometry)
        self.scalar_inserts = 0

    def insert(self, *args):
        self.scalar_inserts += 1
        super().insert(*args)


def flow_keys(ids):
    keys = [pack_flow(6, 0xAC100000 + k, 1000 + k, 0x08080000 + 7 * k)
            for k in ids]
    return (np.array([k[0] for k in keys], dtype=np.uint64),
            np.array([k[1] for k in keys], dtype=np.uint64))


def test_same_bucket_placements_stay_vectorized():
    """New keys sharing a bucket take successive free slots in the
    vectorized write: at low load no insert falls back to the scalar
    path, and the table matches sequential inserts."""
    geometry = dict(order=8, slots_per_bucket=4, lifetime=1e9)
    lo, hi = flow_keys(range(200))
    batch = CountingTable(**geometry)
    b1, _ = batch.bucket_pairs(lo, hi)
    assert len(np.unique(b1)) < len(b1) - 40      # many shared buckets
    batch.insert_batch(lo, hi, np.zeros(200))
    scalar = ScalarRehashTable(**geometry)
    for i in range(200):
        scalar.insert(int(lo[i]), int(hi[i]), 0.0)
    assert batch.scalar_inserts == 0
    assert_same_table(batch, scalar)


def test_purge_that_leaves_occupancy_unchanged_is_seen():
    """The insert that reaches the threshold fills one slot and its purge
    frees exactly one, so occupancy does not move; the rest of the window
    must still be re-resolved, because the purged key's next insert is now
    a placement into a never-used slot, not a refresh."""
    geometry = dict(order=5, slots_per_bucket=1, lifetime=1.0,
                    max_order=8, grow_at=0.25)       # threshold: 8 slots
    tables_ = [ScalarRehashTable(**geometry), CuckooFlowTable(**geometry)]
    lo, hi = flow_keys(range(400))
    b1, b2 = tables_[0].bucket_pairs(lo, hi)
    # Key 0 goes in first; seven more keys with distinct first buckets,
    # away from key 0's two, each take their first bucket without a kick.
    used = {int(b1[0]), int(b2[0])}
    chosen = []
    for i in range(1, 400):
        if int(b1[i]) not in used and len(chosen) < 7:
            used.add(int(b1[i]))
            chosen.append(i)
    order = chosen + [0]
    ts = np.array([2.0] * 7 + [2.5])
    for table in tables_:
        table.insert(int(lo[0]), int(hi[0]), 0.0)
    scalar, batch = tables_
    for i, t in zip(order, ts.tolist()):
        scalar.insert(int(lo[i]), int(hi[i]), t)
    batch.insert_batch(lo[order], hi[order], ts)
    assert scalar.occupancy == 8 and scalar.refreshes == 0
    assert_same_table(batch, scalar)
