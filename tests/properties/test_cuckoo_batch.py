"""Batch/scalar parity of the cuckoo flow table under adversarial load.

``CuckooFlowTable.insert_batch`` places runs of new keys and refreshes in
one vectorized write and falls back to the scalar ``insert`` wherever an
insert may kick or grow or depends on a slot an earlier insert wrote.
Tiny tables, few slots, short lifetimes and repeated keys make every one
of those cases common; the table must end byte-identical (state digest)
with identical counters to a scalar insert loop.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.cuckoo import CuckooFlowTable, pack_flow


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


@given(geometry=tables(), script=insert_scripts(),
       warm=st.integers(0, 60), gc_lag=st.one_of(st.none(),
                                                  st.floats(0.0, 3.0)))
@settings(max_examples=200, deadline=None)
def test_insert_batch_matches_scalar_inserts(geometry, script, warm, gc_lag):
    lo, hi, ts = script
    scalar = CuckooFlowTable(**geometry)
    batch = CuckooFlowTable(**geometry)
    # A pre-populated table: the script meets present, expired and
    # foreign entries in its buckets.
    for i in range(warm):
        key = pack_flow(17, 0xAC110000 + i, 53, 0x01010101 + i)
        scalar.insert(*key, 0.1 * i - 5.0)
        batch.insert(*key, 0.1 * i - 5.0)
    gc_now = None if gc_lag is None else float(ts[0]) - gc_lag
    for i in range(len(lo)):
        scalar.insert(int(lo[i]), int(hi[i]), float(ts[i]), gc_now)
    batch.insert_batch(lo, hi, ts, gc_now)
    assert batch.state_digest() == scalar.state_digest()
    assert batch.occupancy == scalar.occupancy
    assert batch.order == scalar.order
    assert batch.counters() == scalar.counters()
    assert batch.grow_causes == scalar.grow_causes
