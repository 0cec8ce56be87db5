"""A FilterSession's geometry rebuild does not depend on how a trace is cut.

The daemon feeds its session micro-batches whose edges fall wherever
frames happened to coalesce; the offline twin
(:func:`repro.sim.pipeline.run_filter_with_reconfig`) feeds it the whole
trace at once.  Both must rebuild at the same packet, so these properties
cut a trace at arbitrary points — the rebuild boundary and rotation
boundaries among them — feed the pieces to one session with a pending
rebuild, and check the verdicts, stats and bitmap bytes of one uncut call.
The config's JSON form round-trips too, and a reloaded ``warmup_grace`` is
kept for the next rebuild.
"""

import json
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.bitmap_filter import FilterConfig
from repro.core.hybrid import VerifySpec
from repro.core.resilience import FailPolicy
from repro.core.session import FilterSession
from repro.net.packet import PacketArray
from tests.strategies import (
    PROTECTED,
    rotation_straddling_arrays,
    script_to_packets,
    traffic_scripts,
)

#: Every traffic shape here assumes a 5 s rotation interval.
INTERVAL = 5.0


@st.composite
def geometries(draw, layers=st.just(())):
    return FilterConfig(
        order=draw(st.integers(4, 8)),
        num_vectors=draw(st.integers(2, 4)),
        num_hashes=draw(st.integers(1, 3)),
        rotation_interval=INTERVAL,
        seed=draw(st.integers(0, 2**16)),
        layers=draw(layers),
    )


@st.composite
def cases(draw):
    if draw(st.booleans()):
        events = draw(traffic_scripts(max_events=60, num_flows=12))
        packets = PacketArray.from_packets(script_to_packets(events))
    else:
        packets = draw(rotation_straddling_arrays(rotation_interval=INTERVAL))
    old = draw(geometries())
    new = draw(geometries(layers=st.sampled_from([(), ("verify",)])))
    # Same geometry would apply in place; the property needs a rebuild.
    if new == old:
        new = replace(new, order=new.order + 1)
    ts = np.asarray(packets.ts, dtype=np.float64)
    rebuild_at = INTERVAL * draw(st.integers(1, 8))
    boundaries = INTERVAL * np.arange(1, 10)
    cuts = {0, len(packets),
            int(np.searchsorted(ts, rebuild_at, side="left")),
            *np.searchsorted(ts, boundaries, side="left").tolist(),
            *draw(st.lists(st.integers(0, len(packets)), max_size=6))}
    return packets, old, new, rebuild_at, sorted(cuts)


def _session(old, new, rebuild_at):
    session = FilterSession(old, PROTECTED)
    assert session.apply(new, rebuild_at=rebuild_at) == "deferred-rebuild"
    return session


def _state(session):
    filt = session.filter
    return {
        "config": session.config,
        "pending": session.pending,
        "stats": filt.stats.as_dict(),
        "vectors": [bytes(vec.as_numpy()) for vec in filt.bitmap.vectors],
        "current_index": filt.bitmap.current_index,
        "next_rotation": filt.next_rotation,
        "warmup_until": filt.warmup_until,
        # The verification tier's flow table, when the new stack has one.
        "table": (filt.table.state_digest() if hasattr(filt, "table")
                  else None),
    }


@given(case=cases())
@settings(max_examples=200, deadline=None)
def test_cut_batches_rebuild_like_one_uncut_call(case):
    packets, old, new, rebuild_at, cuts = case
    whole = _session(old, new, rebuild_at)
    want = whole.process_batch(packets, exact=True).tolist()

    cut = _session(old, new, rebuild_at)
    got = []
    for start, end in zip(cuts, cuts[1:]):
        got += cut.process_batch(packets[start:end], exact=True).tolist()
    assert got == want
    assert _state(cut) == _state(whole)


@given(config=geometries(layers=st.sampled_from([
    (), ("verify",),
    (VerifySpec(scope=("172.16.0.0/24",), initial_order=10,
                resize_fpr=0.01),)])),
    fail_policy=st.sampled_from(list(FailPolicy)),
    warmup_grace=st.floats(0.0, 60.0))
def test_config_json_round_trip(config, fail_policy, warmup_grace):
    config = replace(config, fail_policy=fail_policy,
                     warmup_grace=warmup_grace)
    assert FilterConfig.from_dict(config.as_dict()) == config
    assert FilterConfig.from_dict(
        json.loads(json.dumps(config.as_dict()))) == config


GRACE_CONFIG = FilterConfig(order=6, num_vectors=4, num_hashes=2,
                            rotation_interval=INTERVAL)


def test_warmup_grace_alone_is_kept_without_a_rebuild():
    session = FilterSession(GRACE_CONFIG, PROTECTED)
    assert session.apply(replace(GRACE_CONFIG, warmup_grace=30.0)) \
        == "unchanged"
    assert session.config.warmup_grace == 30.0
    assert session.pending is None
    assert session.filter.warmup_until == float("-inf")


def test_rebuild_opens_the_longer_of_old_te_and_new_grace():
    """Old Te is 20 s; a rebuild at t=5 opens 60 s of grace when the new
    config asks for 60, and the old Te when it asks for less."""
    for grace, until in ((60.0, 65.0), (1.0, 25.0)):
        session = FilterSession(GRACE_CONFIG, PROTECTED)
        new = replace(GRACE_CONFIG, order=7, warmup_grace=grace)
        assert session.apply(new, rebuild_at=5.0) == "deferred-rebuild"
        session.rebuild_due(5.0)
        assert session.config == new
        assert session.filter.warmup_until == until
