"""Differential proof, part 2: adaptive packet dropping under the stack.

APD drop decisions depend on *global arrival order*: the indicator state
and the drop-RNG draw sequence are both functions of every packet the
filter has seen, in order.  The verification tier sits above the bitmap
filter that owns the policy, so stacking it must leave that order, and
hence every APD decision, untouched.  APD is scalar-only; the batch path
refuses it on both stacks.
"""

import numpy as np
import pytest

from repro.core.apd import AdaptiveDroppingPolicy, PacketRatioIndicator
from repro.core.hybrid import HybridVerifiedFilter
from tests.differential.conftest import VERIFY_SPEC, make_serial

pytestmark = pytest.mark.differential


#: Aggressive thresholds so the flood window actually modulates the drop
#: probability into (0, 1); otherwise the RNG is never consulted.
def _ratio_policy(seed=0xD09):
    return AdaptiveDroppingPolicy(PacketRatioIndicator(low=0.5, high=2.0),
                                  seed=seed)


def test_apd_indicator_state_tracks_serial(trace):
    """The bare APD filter and the same filter under the verification
    tier see the same arrivals in the same order: the indicator's windows,
    the drop probability and the RNG position all agree after replay."""
    serial = make_serial(trace.protected, apd=_ratio_policy())
    inner = make_serial(trace.protected, apd=_ratio_policy())
    verified = HybridVerifiedFilter(inner, VERIFY_SPEC)
    for pkt in trace.packets:
        serial.process(pkt)
        verified.process(pkt)
    assert inner.stats.as_dict() == serial.stats.as_dict()
    assert (inner.apd.stats.admitted, inner.apd.stats.dropped) \
        == (serial.apd.stats.admitted, serial.apd.stats.dropped)
    assert (inner.apd.indicator.drop_probability()
            == serial.apd.indicator.drop_probability())
    assert inner.apd._rng.getstate() == serial.apd._rng.getstate()
    assert serial.apd.stats.admitted > 0


def test_apd_batch_unsupported_on_both(trace):
    """Batch + APD is NotImplemented on the bare filter; the verified
    stack must refuse identically rather than silently diverge."""
    serial = make_serial(trace.protected, apd=_ratio_policy())
    with pytest.raises(NotImplementedError):
        serial.process_batch(trace.packets[:10])
    verified = HybridVerifiedFilter(
        make_serial(trace.protected, apd=_ratio_policy()), VERIFY_SPEC)
    with pytest.raises(NotImplementedError):
        verified.process_batch(trace.packets[:10])


def test_apd_verdicts_differ_from_plain_filter(trace):
    """Sanity for the whole file: APD actually changed some verdicts on
    this trace (otherwise agreement above is trivially meaningless)."""
    plain = make_serial(trace.protected)
    apd = make_serial(trace.protected, apd=_ratio_policy())
    plain_verdicts = [plain.process(pkt) for pkt in trace.packets]
    apd_verdicts = [apd.process(pkt) for pkt in trace.packets]
    assert not np.array_equal(np.array(plain_verdicts),
                              np.array(apd_verdicts))
    assert apd.apd.stats.admitted > 0
    assert apd.stats.apd_admitted == apd.apd.stats.admitted
