"""Unit tests for the exact cuckoo flow table (the verification tier).

The table's one-line contract: a key inserted at ``t`` is found by any
lookup in ``[t, t + lifetime)`` and by none after, exactly — no false
positives ever, no false negatives while live.  Everything else here
(growth, kicking, expiry-driven reclaim, snapshots) exists to keep that
contract under pressure.
"""

import numpy as np
import pytest

from repro.core.cuckoo import CuckooFlowTable, pack_flow, pack_flows_vec


def key(i: int):
    """A distinct directional flow key per index."""
    return pack_flow(6, 0xAC100000 + i, 10_000 + (i % 40_000), 0x08080000 + i)


class TestPacking:
    def test_pack_flow_is_injective_on_fields(self):
        seen = {pack_flow(6, 1, 2, 3), pack_flow(17, 1, 2, 3),
                pack_flow(6, 9, 2, 3), pack_flow(6, 1, 9, 3),
                pack_flow(6, 1, 2, 9)}
        assert len(seen) == 5

    def test_vectorized_matches_scalar(self):
        proto = np.array([6, 17, 6], dtype=np.uint8)
        laddr = np.array([0xAC100001, 0xAC100002, 0xFFFFFFFF], dtype=np.uint32)
        lport = np.array([80, 443, 65535], dtype=np.uint16)
        raddr = np.array([0x08080808, 0x01010101, 0], dtype=np.uint32)
        lo, hi = pack_flows_vec(proto, laddr, lport, raddr)
        for i in range(3):
            slo, shi = pack_flow(int(proto[i]), int(laddr[i]),
                                 int(lport[i]), int(raddr[i]))
            assert (int(lo[i]), int(hi[i])) == (slo, shi)


class TestExactness:
    def test_insert_then_contains(self):
        table = CuckooFlowTable(order=4, lifetime=10.0)
        lo, hi = key(1)
        assert not table.contains(lo, hi, 0.0)
        table.insert(lo, hi, 1.0)
        assert table.contains(lo, hi, 1.0)
        assert table.contains(lo, hi, 10.9)       # still inside lifetime
        assert not table.contains(lo, hi, 11.1)   # expired
        other = key(2)
        assert not table.contains(other[0], other[1], 1.0)

    def test_refresh_extends_lifetime_without_duplicating(self):
        table = CuckooFlowTable(order=4, lifetime=10.0)
        lo, hi = key(3)
        table.insert(lo, hi, 0.0)
        table.insert(lo, hi, 8.0)
        assert table.occupancy == 1
        assert table.refreshes == 1
        assert table.contains(lo, hi, 17.0)       # lives from the refresh

    def test_no_false_positives_under_load(self):
        """Fill well past several doublings, then probe disjoint keys —
        an exact table never confabulates membership."""
        table = CuckooFlowTable(order=4, lifetime=100.0)
        for i in range(2000):
            lo, hi = key(i)
            table.insert(lo, hi, float(i) * 0.01)
        for i in range(2000):
            lo, hi = key(i)
            assert table.contains(lo, hi, 20.0), i
        probe = [key(100_000 + i) for i in range(2000)]
        lo = np.array([p[0] for p in probe], dtype=np.uint64)
        hi = np.array([p[1] for p in probe], dtype=np.uint64)
        assert not table.contains_batch(lo, hi, np.full(2000, 20.0)).any()

    def test_batch_paths_match_scalar(self):
        table_s = CuckooFlowTable(order=5, lifetime=30.0)
        table_b = CuckooFlowTable(order=5, lifetime=30.0)
        keys = [key(i % 300) for i in range(1500)]
        ts = np.linspace(0.0, 25.0, 1500)
        for (lo, hi), t in zip(keys, ts.tolist()):
            table_s.insert(lo, hi, t)
        lo = np.array([k[0] for k in keys], dtype=np.uint64)
        hi = np.array([k[1] for k in keys], dtype=np.uint64)
        table_b.insert_batch(lo, hi, ts)
        assert table_b.state_digest() == table_s.state_digest()
        got = table_b.contains_batch(lo, hi, np.full(1500, 26.0))
        want = np.array([table_s.contains(int(l), int(h), 26.0)
                         for l, h in keys])
        assert np.array_equal(got, want)

    def test_lookups_never_mutate(self):
        table = CuckooFlowTable(order=4, lifetime=10.0)
        for i in range(40):
            lo, hi = key(i)
            table.insert(lo, hi, 0.5)
        before = table.state_digest()
        for i in range(80):
            lo, hi = key(i)
            table.contains(lo, hi, 5.0)
            table.contains(lo, hi, 50.0)
        assert table.state_digest() == before


class TestGrowthAndPressure:
    def test_grows_under_utilization(self):
        table = CuckooFlowTable(order=3, lifetime=1e9, max_order=10)
        start = table.capacity
        for i in range(300):
            lo, hi = key(i)
            table.insert(lo, hi, 1.0)
        assert table.capacity > start
        assert table.grows >= 1
        assert table.grow_causes["utilization"] >= 1
        for i in range(300):        # every key survives the rehash exactly
            lo, hi = key(i)
            assert table.contains(lo, hi, 1.5), i

    def test_purge_before_grow_reclaims_expired(self):
        """Expired entries are collected in place, so churn at steady state
        never grows the table."""
        table = CuckooFlowTable(order=4, lifetime=5.0, max_order=20)
        for gen in range(40):
            t = gen * 10.0          # every generation fully expires the last
            for i in range(40):
                lo, hi = key(i + 1000 * gen)
                table.insert(lo, hi, t)
        assert table.grows == 0

    def test_max_order_overwrites_stalest(self):
        table = CuckooFlowTable(order=2, slots_per_bucket=1,
                                lifetime=1e9, max_order=2, grow_at=1.0)
        for i in range(200):
            lo, hi = key(i)
            table.insert(lo, hi, float(i))
        assert table.grows == 0
        assert table.overwrites > 0
        assert table.occupancy <= table.capacity

    def test_inserts_collect_at_their_own_stamp(self):
        """Inserts reclaim relative to their own timestamp — the entry
        inserted at t=0 with lifetime 5 is fair game at t=1000."""
        table = CuckooFlowTable(order=2, slots_per_bucket=1, lifetime=5.0,
                                max_order=2, grow_at=1.0)
        lo0, hi0 = key(0)
        table.insert(lo0, hi0, 0.0)
        occupied_before = table.occupancy
        for i in range(1, 30):
            lo, hi = key(i)
            table.insert(lo, hi, 1000.0)
        assert not table.contains(lo0, hi0, 1000.0)
        assert table.occupancy <= table.capacity
        assert occupied_before <= table.capacity


class TestSnapshotAndCopy:
    def _populated(self):
        table = CuckooFlowTable(order=4, lifetime=20.0)
        for i in range(200):
            lo, hi = key(i)
            table.insert(lo, hi, float(i % 7))
        return table

    def test_export_restore_round_trip(self):
        table = self._populated()
        arrays, meta = table.export_state()
        clone = CuckooFlowTable.from_state(arrays, meta)
        assert clone.state_digest() == table.state_digest()
        assert clone.occupancy == table.occupancy
        assert clone.capacity == table.capacity
        for i in range(200):
            lo, hi = key(i)
            assert clone.contains(lo, hi, 6.5) == table.contains(lo, hi, 6.5)

    def test_from_state_rejects_shape_mismatch(self):
        arrays, meta = self._populated().export_state()
        arrays["cuckoo_stamp"] = arrays["cuckoo_stamp"][:4]
        with pytest.raises(ValueError, match="shape"):
            CuckooFlowTable.from_state(arrays, meta)

    def test_copy_is_independent(self):
        table = self._populated()
        clone = table.copy()
        assert clone.state_digest() == table.state_digest()
        assert clone.counters() == table.counters()
        lo, hi = key(9999)
        clone.insert(lo, hi, 1.0)
        assert not table.contains(lo, hi, 1.0)
        assert clone.state_digest() != table.state_digest()


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"order": 1}, {"order": 29},
        {"order": 8, "max_order": 7}, {"slots_per_bucket": 0},
        {"lifetime": 0.0}, {"grow_at": 0.0}, {"grow_at": 1.5},
    ])
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CuckooFlowTable(**kwargs)

    def test_memory_accounting(self):
        table = CuckooFlowTable(order=4, slots_per_bucket=4)
        assert table.memory_bytes == (1 << 4) * 4 * 24
