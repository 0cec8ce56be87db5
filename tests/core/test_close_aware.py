"""Tests for the close-aware bitmap filter extension."""

import pytest

from repro.core.bitmap_filter import BitmapFilter, Decision, FilterConfig
from repro.core.close_aware import (
    CloseAwareBitmapFilter,
    CloseAwareConfig,
    TombstoneBitmap,
)
from repro.net.packet import TcpFlags
from tests.conftest import make_reply, make_request

CFG = FilterConfig(order=12, num_vectors=4, num_hashes=3,
                   rotation_interval=5.0)


@pytest.fixture()
def filt(protected):
    return CloseAwareBitmapFilter(CFG, protected,
                                  CloseAwareConfig(grace=2.5, lifetime=20.0))


class TestCloseAwareConfig:
    def test_vector_count(self):
        assert CloseAwareConfig(grace=2.5, lifetime=20.0).num_vectors == 9
        assert CloseAwareConfig(grace=2.0, lifetime=20.0).num_vectors == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            CloseAwareConfig(grace=0)
        with pytest.raises(ValueError):
            CloseAwareConfig(grace=5.0, lifetime=6.0)


class TestTombstoneBitmap:
    def test_marks_invisible_until_rotation(self):
        tomb = TombstoneBitmap(4, 8)
        tomb.mark([5, 6])
        assert not tomb.test([5, 6])   # current vector untouched
        tomb.rotate()
        assert tomb.test([5, 6])       # matured

    def test_marks_expire(self):
        tomb = TombstoneBitmap(4, 8)
        tomb.mark([9])
        for _ in range(4):
            tomb.rotate()
        assert not tomb.test([9])

    def test_marks_persist_between_maturity_and_expiry(self):
        tomb = TombstoneBitmap(5, 8)
        tomb.mark([3])
        hits = []
        for _ in range(6):
            tomb.rotate()
            hits.append(tomb.test([3]))
        assert hits == [True, True, True, True, False, False]


class TestCloseAwareSemantics:
    def test_ordinary_replies_pass(self, filt, client_addr, server_addr):
        request = make_request(1.0, client_addr, server_addr)
        assert filt.process(request) is Decision.PASS
        assert filt.process(make_reply(request, 1.2)) is Decision.PASS

    def test_close_handshake_passes(self, filt, client_addr, server_addr):
        request = make_request(1.0, client_addr, server_addr)
        filt.process(request)
        fin = make_request(2.0, client_addr, server_addr,
                           flags=TcpFlags.FIN | TcpFlags.ACK)
        filt.process(fin)
        # Reply FIN/ACK arrives before the tombstone matures: passes.
        assert filt.process(
            make_reply(request, 2.1, flags=TcpFlags.FIN | TcpFlags.ACK)
        ) is Decision.PASS

    def test_post_close_straggler_dropped(self, filt, client_addr, server_addr):
        """The headline: stragglers inside Te are now dropped (SPI-style)."""
        request = make_request(1.0, client_addr, server_addr)
        filt.process(request)
        fin = make_request(2.0, client_addr, server_addr,
                           flags=TcpFlags.FIN | TcpFlags.ACK)
        filt.process(fin)
        straggler = make_reply(request, 9.0)   # 7s post-close, inside Te
        assert filt.process(straggler) is Decision.DROP
        assert filt.dropped_after_close == 1

    def test_plain_bitmap_passes_the_same_straggler(self, protected,
                                                    client_addr, server_addr):
        plain = BitmapFilter(CFG, protected)
        request = make_request(1.0, client_addr, server_addr)
        plain.process(request)
        plain.process(make_request(2.0, client_addr, server_addr,
                                   flags=TcpFlags.FIN | TcpFlags.ACK))
        assert plain.process(make_reply(request, 9.0)) is Decision.PASS

    def test_incoming_fin_also_tombstones(self, filt, client_addr, server_addr):
        request = make_request(1.0, client_addr, server_addr)
        filt.process(request)
        fin = make_reply(request, 2.0, flags=TcpFlags.FIN | TcpFlags.ACK)
        assert filt.process(fin) is Decision.PASS
        straggler = make_reply(request, 9.0)
        assert filt.process(straggler) is Decision.DROP

    def test_tombstone_expires(self, protected, client_addr, server_addr):
        filt = CloseAwareBitmapFilter(
            CFG, protected, CloseAwareConfig(grace=2.5, lifetime=10.0))
        request = make_request(1.0, client_addr, server_addr)
        filt.process(request)
        filt.process(make_request(2.0, client_addr, server_addr,
                                  flags=TcpFlags.FIN | TcpFlags.ACK))
        # Refresh the data mark so only the tombstone can block.
        filt.process(make_request(14.0, client_addr, server_addr))
        late = make_reply(request, 15.5)   # tombstone (lifetime 10s) expired
        assert filt.process(late) is Decision.PASS

    def test_unsolicited_still_dropped(self, filt, client_addr, server_addr):
        from repro.net.packet import Packet
        from repro.net.protocols import IPPROTO_TCP

        stray = Packet(1.0, IPPROTO_TCP, server_addr, 1, client_addr, 2)
        assert filt.process(stray) is Decision.DROP

    def test_memory_accounting(self, filt):
        expected = CFG.memory_bytes + 9 * (1 << CFG.order) // 8
        assert filt.memory_bytes == expected

    def test_udp_never_tombstoned(self, filt, client_addr, server_addr):
        from repro.net.protocols import IPPROTO_UDP

        request = make_request(1.0, client_addr, server_addr,
                               proto=IPPROTO_UDP, flags=TcpFlags.NONE)
        filt.process(request)
        assert filt.closes_recorded == 0


class TestPrecisionComparison:
    def test_lands_between_bitmap_and_spi(self, protected):
        """On the real workload, post-close drops: bitmap < close-aware ~ SPI."""
        from repro.spi.naive import NaiveExactFilter
        from repro.traffic.generator import ClientNetworkWorkload, WorkloadConfig

        config = WorkloadConfig(duration=90.0, target_pps=300.0, seed=44,
                                background_noise_fraction=0.0)
        trace = ClientNetworkWorkload(config).generate()

        plain = BitmapFilter(CFG, trace.protected)
        plain_verdicts = plain.process_batch(trace.packets, exact=True)

        aware = CloseAwareBitmapFilter(CFG, trace.protected)
        aware_verdicts = aware.process_batch(trace.packets)

        spi = NaiveExactFilter(trace.protected, idle_timeout=240.0)
        spi_verdicts = spi.process_batch(trace.packets)

        incoming = trace.packets.directions(trace.protected) == 1
        plain_drops = int((~plain_verdicts[incoming]).sum())
        aware_drops = int((~aware_verdicts[incoming]).sum())
        spi_drops = int((~spi_verdicts[incoming]).sum())

        # Close-aware drops strictly more than the plain bitmap (the
        # stragglers), approaching the close-tracking SPI's count.
        assert aware_drops > plain_drops
        assert aware.dropped_after_close > 0
        assert aware_drops >= 0.5 * spi_drops
