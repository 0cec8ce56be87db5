"""Statistical property: measured penetration matches Equation (1).

Loads bitmaps at random utilizations and checks the random-probe penetration
rate against ``p = U**m`` within binomial-confidence tolerance.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.bitmap import Bitmap
from repro.core.hashing import HashFamily
from repro.core.parameters import penetration_probability


@given(
    connections=st.integers(100, 1500),
    num_hashes=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_measured_penetration_matches_eq1(connections, num_hashes, seed):
    order = 12
    rng = random.Random(seed)
    bitmap = Bitmap(2, order)
    hashes = HashFamily(num_hashes, order, seed=seed)
    for _ in range(connections):
        bitmap.mark(hashes.indices(
            (6, rng.getrandbits(32), rng.getrandbits(16), rng.getrandbits(32))))

    # Predict from the *measured* utilization (Eq. 1 directly, no Eq. 2
    # occupancy approximation involved).
    predicted = penetration_probability(bitmap.utilization(), num_hashes)

    trials = 4000
    hits = 0
    for _ in range(trials):
        key = (17, rng.getrandbits(32), rng.getrandbits(16), rng.getrandbits(32))
        if bitmap.test_current(hashes.indices(key)):
            hits += 1
    measured = hits / trials

    # Binomial std + a small model slack (bit correlations within one key).
    sigma = (max(predicted, 1e-4) * 1.0 / trials) ** 0.5
    assert measured == pytest.approx(predicted, abs=6 * sigma + 0.01)


@given(u=st.floats(0.01, 0.99), m=st.integers(1, 8))
def test_eq1_monotone_in_utilization(u, m):
    assert penetration_probability(u, m) <= penetration_probability(min(1.0, u + 0.01), m)


@given(u=st.floats(0.01, 0.99), m=st.integers(1, 7))
def test_eq1_decreasing_in_hashes_below_half(u, m):
    """For U < 1, more hashes always lower the per-probe penetration."""
    assert penetration_probability(u, m + 1) <= penetration_probability(u, m)


@given(
    delay=st.floats(0.0, 40.0),
    phase=st.floats(0.0, 5.0, exclude_max=True),
)
@settings(max_examples=300, deadline=None)
def test_mark_survival_closed_form_brackets_simulation(delay, phase):
    """The rotating bitmap agrees with the closed-form survival windows."""
    from repro.core.bitmap import Bitmap
    from repro.core.hashing import HashFamily
    from repro.core.parameters import mark_survival_probability

    k, dt = 4, 5.0
    bitmap = Bitmap(k, 10)
    hashes = HashFamily(2, 10)
    # Mark at time `phase`; rotations happen at dt, 2dt, ... (boundary
    # inclusive, matching BitmapFilter.advance_to).
    key = (6, 1, 2, 3)
    rotations_before_mark = int(phase // dt)  # zero for phase < dt
    for _ in range(rotations_before_mark):
        bitmap.rotate()
    bitmap.mark(hashes.indices(key))
    lookup_time = phase + delay
    total_rotations = int(lookup_time // dt)
    for _ in range(total_rotations - rotations_before_mark):
        bitmap.rotate()
    survived = bitmap.test_current(hashes.indices(key))

    p = mark_survival_probability(delay, k, dt)
    if p == 1.0:
        assert survived
    elif p == 0.0:
        assert not survived
    # Inside the linear band either outcome is phase-dependent and legal.


@given(delay=st.floats(0.0, 100.0), k=st.integers(2, 8),
       dt=st.floats(0.5, 10.0))
def test_mark_survival_monotone_in_delay(delay, k, dt):
    from repro.core.parameters import mark_survival_probability

    a = mark_survival_probability(delay, k, dt)
    b = mark_survival_probability(delay + 0.1, k, dt)
    assert 0.0 <= b <= a <= 1.0


def test_expected_fp_matches_measured_drops():
    """The closed form predicts the bitmap's legit-drop rate on real traffic."""
    import numpy as np

    from repro.analysis.delay import out_in_delays
    from repro.core.bitmap_filter import BitmapFilter, FilterConfig
    from repro.core.parameters import expected_false_positive_rate
    from repro.traffic.generator import WorkloadConfig, ClientNetworkWorkload

    config = WorkloadConfig(duration=120.0, target_pps=400.0, seed=6,
                            background_noise_fraction=0.0)
    trace = ClientNetworkWorkload(config).generate()
    delays = out_in_delays(trace.packets, trace.protected, expiry_timer=600.0)

    filter_config = FilterConfig(order=14, num_vectors=4, num_hashes=3,
                                 rotation_interval=5.0)
    predicted = expected_false_positive_rate(delays, 4, 5.0)

    filt = BitmapFilter(filter_config, trace.protected)
    verdicts = filt.process_batch(trace.packets, exact=True)
    incoming = trace.packets.directions(trace.protected) == 1
    measured = float((~verdicts[incoming]).mean())
    # The prediction covers delay-expiry drops; measured includes them plus
    # a tiny remainder (e.g. replies to suppressed marks).  Same ballpark.
    assert measured == pytest.approx(predicted, rel=0.5, abs=0.004)
