"""Shared fixtures for the split-equivalence half of the differential suite.

The fleet and multi-site files compare live daemons with the offline
runner.  The split-equivalence files replay one trace through a single
:class:`~repro.core.bitmap_filter.BitmapFilter` and through the same work
spread over several filter instances, and assert *bit-for-bit* agreement:
verdicts, summed stats, rotation schedule and raw bitmap bytes.  Any test
that takes a ``backend`` argument is parametrized over every way of
spreading the work:

- ``sharded``: incoming packets are split by destination host over N
  filters that each see every outgoing packet.  Only outgoing packets and
  the clock write filter state, so every instance must end bit-identical
  to the single filter and their verdicts must reassemble into its
  verdicts.  A deployment that shards a client network by host relies on
  exactly this.
- ``shared``: the trace is cut into N consecutive runs at rotation
  boundaries, and each run's filter hands its whole state to the next one
  through a snapshot (:func:`~repro.core.persistence.save_filter` /
  :func:`~repro.core.persistence.load_filter`), the warm-restart path.
  (Cutting at a boundary keeps the windowed path's rotation windows whole;
  arbitrary cuts of the exact path are covered by
  ``tests/properties/test_batch_kernel.py``.)

The ``verified-*`` names stack the hybrid bitmap→cuckoo verification tier
(:class:`~repro.core.hybrid.HybridVerifiedFilter`) on every filter on both
sides, so the cuckoo tables must agree too.
"""

import io

import numpy as np
import pytest

from repro.attacks.ddos import syn_flood
from repro.core.bitmap_filter import (
    BitmapFilter,
    BitmapFilterConfig,
    Decision,
)
from repro.core.hybrid import HybridVerifiedFilter, VerifySpec
from repro.core.persistence import load_filter, save_filter
from repro.net.packet import DIRECTION_INCOMING
from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig
from repro.traffic.trace import Trace

#: Instance counts every parametrized equivalence test sweeps.
WORKER_COUNTS = (1, 2, 4)

#: Every way of spreading one filter's work the contract covers.
SPREADS = ("sharded", "shared", "verified-sharded", "verified-shared")

#: Small table so the trace exercises growth under the sweep.
VERIFY_SPEC = VerifySpec(initial_order=4)

#: Small geometry with a fast rotation clock: a 25 s trace crosses ~12
#: rotation boundaries and several full expiry windows.
CONFIG = BitmapFilterConfig(order=12, num_vectors=4, num_hashes=3,
                            rotation_interval=2.0)


def pytest_generate_tests(metafunc):
    """Sweep every test that names a ``backend`` argument across all
    spreads (plain parametrize, so Hypothesis tests get it too)."""
    if "backend" in metafunc.fixturenames:
        metafunc.parametrize("backend", SPREADS)


@pytest.fixture(scope="session")
def trace() -> Trace:
    """Benign client-network workload with a SYN flood on top."""
    base = ClientNetworkWorkload(
        WorkloadConfig(duration=25.0, target_pps=250.0, seed=97)).generate()
    victim = base.protected.networks[0].host(5)
    flood = syn_flood(victim, 80, rate_pps=400.0, start=8.0, duration=6.0,
                      seed=11)
    # Session tails dribble on long past the nominal duration; bound the
    # trace so rotation counts stay in a known window.
    return base.merged_with(Trace(flood, base.protected)).time_slice(0.0, 26.0)


def make_serial(protected, backend="serial", config=CONFIG, **kwargs):
    """A plain bitmap filter, or a hybrid over one when the sweep name
    asks for the verified stack."""
    filt = BitmapFilter(config, protected, **kwargs)
    if backend.startswith("verified-"):
        filt = HybridVerifiedFilter(filt, VERIFY_SPEC)
    return filt


def _hand_off(filt):
    """A new filter holding ``filt``'s whole state, via a snapshot."""
    buf = io.BytesIO()
    save_filter(filt, buf)
    buf.seek(0)
    return load_filter(buf)


def _runs(ts, num_runs, config):
    """Row ranges of ``num_runs`` consecutive runs of roughly equal length,
    each cut moved forward to the first packet of a rotation window."""
    window = np.floor(np.asarray(ts) / config.rotation_interval)
    starts = np.flatnonzero(np.diff(window)) + 1
    cuts = []
    for run in range(1, num_runs):
        nominal = len(ts) * run // num_runs
        at = np.searchsorted(starts, nominal)
        cuts.append(int(starts[at]) if at < len(starts) else len(ts))
    return np.split(np.arange(len(ts)), cuts)


class Spread:
    """The result of one replay spread over several filter instances.

    ``verdicts`` is the reassembled verdict vector, ``filters`` the
    instances holding the final state (every shard, or the last filter of
    a hand-off chain), ``verified`` the (confirmed, denied) counts summed
    over every instance the replay used.
    """

    def __init__(self, verdicts, filters, verified):
        self.verdicts = verdicts
        self.filters = filters
        self.verified = verified


def spread_replay(backend, protected, num_workers, packets, feed,
                  config=CONFIG):
    """Replay ``packets`` with the work spread as ``backend`` names.

    ``feed(filt, rows)`` runs the packets at the ascending positions
    ``rows`` through ``filt`` and returns their verdicts as a bool array.
    """
    verdicts = np.zeros(len(packets), dtype=bool)
    filters = []
    confirmed = denied = 0
    if backend.endswith("sharded"):
        incoming = packets.directions(protected) == DIRECTION_INCOMING
        owner = packets.dst % num_workers
        for worker in range(num_workers):
            rows = np.flatnonzero(~incoming | (owner == worker))
            filt = make_serial(protected, backend, config)
            got = feed(filt, rows)
            shared_rows = ~incoming[rows]
            if worker:
                # Packets every shard sees get the same verdict everywhere.
                assert np.array_equal(got[shared_rows],
                                      verdicts[rows[shared_rows]])
            verdicts[rows] = got
            # A shard whose last packet came early still owes the rotations
            # the single filter ran on later packets.
            filt.advance_to(float(packets.ts[-1]))
            filters.append(filt)
    else:
        filt = make_serial(protected, backend, config)
        for run, rows in enumerate(_runs(packets.ts, num_workers, config)):
            if run:
                confirmed += getattr(filt, "confirmed", 0)
                denied += getattr(filt, "denied", 0)
                filt = _hand_off(filt)
            verdicts[rows] = feed(filt, rows)
        filters.append(filt)
    for filt in filters:
        confirmed += getattr(filt, "confirmed", 0)
        denied += getattr(filt, "denied", 0)
    return Spread(verdicts, filters, (confirmed, denied))


def feed_batch(packets, exact=True):
    """A ``feed`` running the whole share through the batch path."""
    return lambda filt, rows: filt.process_batch(packets[rows], exact=exact)


def feed_scalar(packets):
    """A ``feed`` running the share packet by packet."""
    def feed(filt, rows):
        return np.array([filt.process(packets[int(i)]) is Decision.PASS
                         for i in rows], dtype=bool)
    return feed


def bitmap_state(filt):
    """(stacked vector bytes, current index, rotation count) of a filter."""
    bitmap = filt.bitmap
    vectors = np.stack([vec.as_numpy() for vec in bitmap.vectors])
    return vectors, bitmap.current_index, bitmap.rotations


#: FilterStats fields only incoming packets move; a shard counts its own.
_INCOMING_FIELDS = ("incoming", "incoming_dropped", "incoming_passed",
                    "apd_admitted", "degraded_admitted", "degraded_dropped",
                    "warmup_admitted")


def assert_same_filter_state(serial, spread) -> None:
    """The full equivalence contract: the single filter after a replay
    against the spread replay of the same packets."""
    expected = serial.stats.as_dict()
    stats = [filt.stats.as_dict() for filt in spread.filters]
    for name in expected:
        if name in _INCOMING_FIELDS:
            assert sum(s[name] for s in stats) == expected[name], name
        else:
            assert all(s[name] == expected[name] for s in stats), name
    serial_vecs, serial_idx, serial_rot = bitmap_state(serial)
    for filt in spread.filters:
        assert filt.next_rotation == serial.next_rotation
        vecs, idx, rot = bitmap_state(filt)
        assert idx == serial_idx
        assert rot == serial_rot
        assert np.array_equal(vecs, serial_vecs)
    if isinstance(serial, HybridVerifiedFilter):
        # Verified sweeps: the exact tier must agree too, byte for byte.
        for filt in spread.filters:
            assert filt.table.state_digest() == serial.table.state_digest()
        assert spread.verified == (serial.confirmed, serial.denied)
