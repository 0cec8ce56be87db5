"""Tests for repro.core.bitmap_filter — Algorithm 2 and the batch paths."""

import numpy as np
import pytest

from repro.core.bitmap_filter import BitmapFilter, Decision, FilterConfig
from repro.net.packet import Packet, PacketArray, TcpFlags
from repro.net.protocols import IPPROTO_TCP, IPPROTO_UDP
from tests.conftest import make_reply, make_request


class TestConfig:
    def test_paper_default(self):
        config = FilterConfig.paper_default()
        assert config.order == 20
        assert config.num_vectors == 4
        assert config.num_hashes == 3
        assert config.rotation_interval == 5.0
        assert config.expiry_timer == 20.0
        assert config.guaranteed_window == 15.0
        assert config.memory_bytes == 512 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(rotation_interval=0)
        with pytest.raises(ValueError):
            FilterConfig(num_hashes=0)


class TestAlgorithm2:
    def test_outgoing_always_passes(self, bitmap_filter, client_addr, server_addr):
        pkt = make_request(1.0, client_addr, server_addr)
        assert bitmap_filter.process(pkt) is Decision.PASS
        assert bitmap_filter.stats.outgoing == 1

    def test_reply_passes(self, bitmap_filter, client_addr, server_addr):
        request = make_request(1.0, client_addr, server_addr)
        bitmap_filter.process(request)
        assert bitmap_filter.process(make_reply(request, 1.1)) is Decision.PASS

    def test_unsolicited_incoming_dropped(self, bitmap_filter, client_addr, server_addr):
        stray = Packet(1.0, IPPROTO_TCP, server_addr, 9999, client_addr, 1234)
        assert bitmap_filter.process(stray) is Decision.DROP
        assert bitmap_filter.stats.incoming_dropped == 1

    def test_transit_and_internal_pass(self, bitmap_filter, protected):
        transit = make_request(0.0, 0x01010101, 0x02020202)
        assert bitmap_filter.process(transit) is Decision.PASS
        internal = make_request(
            0.0, protected.networks[0].host(1), protected.networks[1].host(1)
        )
        assert bitmap_filter.process(internal) is Decision.PASS
        assert bitmap_filter.stats.transit == 1
        assert bitmap_filter.stats.internal == 1

    def test_reply_from_different_server_port_passes(
        self, bitmap_filter, client_addr, server_addr
    ):
        """The remote port is not hashed (Sec. 3.3 / hole punching)."""
        request = make_request(1.0, client_addr, server_addr, dport=21)
        bitmap_filter.process(request)
        data_channel = Packet(
            1.5, IPPROTO_TCP, server_addr, 20, client_addr, request.sport, TcpFlags.SYN
        )
        assert bitmap_filter.process(data_channel) is Decision.PASS

    def test_reply_to_wrong_client_port_dropped(
        self, bitmap_filter, client_addr, server_addr
    ):
        request = make_request(1.0, client_addr, server_addr, sport=5555)
        bitmap_filter.process(request)
        wrong = Packet(1.5, IPPROTO_TCP, server_addr, 80, client_addr, 5556)
        assert bitmap_filter.process(wrong) is Decision.DROP

    def test_udp_and_tcp_do_not_cross_match(self, bitmap_filter, client_addr, server_addr):
        request = make_request(1.0, client_addr, server_addr, proto=IPPROTO_UDP,
                               flags=TcpFlags.NONE)
        bitmap_filter.process(request)
        tcp_reply = Packet(1.1, IPPROTO_TCP, server_addr, request.dport,
                           client_addr, request.sport)
        assert bitmap_filter.process(tcp_reply) is Decision.DROP


class TestExpiry:
    def test_reply_within_guaranteed_window_passes(
        self, small_config, protected, client_addr, server_addr
    ):
        filt = BitmapFilter(small_config, protected)
        request = make_request(1.0, client_addr, server_addr)
        filt.process(request)
        late = make_reply(request, 1.0 + small_config.guaranteed_window - 0.1)
        assert filt.process(late) is Decision.PASS

    def test_reply_after_expiry_dropped(
        self, small_config, protected, client_addr, server_addr
    ):
        filt = BitmapFilter(small_config, protected)
        request = make_request(1.0, client_addr, server_addr)
        filt.process(request)
        too_late = make_reply(request, 1.0 + small_config.expiry_timer + 5.1)
        assert filt.process(too_late) is Decision.DROP

    def test_refresh_extends_lifetime(self, small_config, protected, client_addr, server_addr):
        filt = BitmapFilter(small_config, protected)
        request = make_request(1.0, client_addr, server_addr)
        filt.process(request)
        filt.process(request.with_ts(18.0))  # re-mark
        assert filt.process(make_reply(request, 30.0)) is Decision.PASS

    def test_advance_to_runs_due_rotations(self, small_config, protected):
        filt = BitmapFilter(small_config, protected)
        ran = filt.advance_to(26.0)  # dt=5 -> rotations at 5,10,15,20,25
        assert ran == 5
        assert filt.stats.rotations == 5
        assert filt.bitmap.rotations == 5

    def test_rotation_boundary_is_inclusive(self, small_config, protected):
        filt = BitmapFilter(small_config, protected)
        assert filt.advance_to(5.0) == 1

    def test_packets_drive_rotation(self, small_config, protected, client_addr, server_addr):
        filt = BitmapFilter(small_config, protected)
        filt.process(make_request(1.0, client_addr, server_addr))
        filt.process(make_request(23.0, client_addr, server_addr, sport=6000))
        assert filt.bitmap.rotations == 4


class TestBatchPaths:
    def _scenario(self, client, server):
        request = make_request(1.0, client, server)
        packets = [
            request,
            make_reply(request, 1.2),
            Packet(2.0, IPPROTO_TCP, server, 1, client, 2),      # stray: drop
            make_request(30.0, client, server, sport=7000),       # new request
            make_reply(request, 40.0),                            # expired: drop
        ]
        return PacketArray.from_packets(packets)

    def test_exact_matches_scalar(self, small_config, protected, client_addr, server_addr):
        batch = self._scenario(client_addr, server_addr)
        scalar = BitmapFilter(small_config, protected)
        expected = [scalar.process(pkt) is Decision.PASS for pkt in batch]
        batched = BitmapFilter(small_config, protected)
        verdicts = batched.process_batch(batch, exact=True)
        assert verdicts.tolist() == expected
        assert batched.stats.as_dict() == scalar.stats.as_dict()

    def test_windowed_never_stricter_than_exact(
        self, small_config, protected, client_addr, server_addr
    ):
        batch = self._scenario(client_addr, server_addr)
        exact = BitmapFilter(small_config, protected).process_batch(batch, exact=True)
        windowed = BitmapFilter(small_config, protected).process_batch(batch, exact=False)
        assert bool(np.all(windowed >= exact))

    def test_windowed_on_simple_scenario(self, small_config, protected, client_addr, server_addr):
        batch = self._scenario(client_addr, server_addr)
        verdicts = BitmapFilter(small_config, protected).process_batch(batch, exact=False)
        assert verdicts.tolist() == [True, True, False, True, False]

    def test_empty_batch(self, small_config, protected):
        filt = BitmapFilter(small_config, protected)
        assert len(filt.process_batch(PacketArray.empty())) == 0
        assert len(filt.process_batch(PacketArray.empty(), exact=False)) == 0

    def test_batch_rejects_apd(self, small_config, protected):
        from repro.core.apd import AdaptiveDroppingPolicy, PacketRatioIndicator

        filt = BitmapFilter(
            small_config, protected,
            apd=AdaptiveDroppingPolicy(PacketRatioIndicator()),
        )
        with pytest.raises(NotImplementedError):
            filt.process_batch(PacketArray.empty())

    def test_windowed_admits_reply_marked_later_in_window(self, protected):
        """The windowed path's one divergence from exact: a reply arriving
        just before its own outgoing mark in the same rotation window."""
        packets = []
        for flow in range(24):
            client = protected.networks[flow % 2].host(30 + flow)
            server = 0x0A000100 + flow
            sport = 40_000 + flow
            t0 = 0.3 + 0.9 * flow  # spreads flows across rotation windows
            packets.append(Packet(t0, IPPROTO_TCP, server, 80, client, sport,
                                  TcpFlags.ACK))          # reply before the mark
            packets.append(Packet(t0 + 0.05, IPPROTO_TCP, client, sport,
                                  server, 80, TcpFlags.ACK))  # the mark
            packets.append(Packet(t0 + 0.10, IPPROTO_TCP, server, 80, client,
                                  sport, TcpFlags.ACK))   # reply after the mark
        batch = PacketArray.from_packets(packets)
        config = FilterConfig(order=12, num_vectors=4, num_hashes=3,
                              rotation_interval=2.0)
        exact = BitmapFilter(config, protected).process_batch(batch, exact=True)
        windowed = BitmapFilter(config, protected).process_batch(batch,
                                                                 exact=False)
        early_replies = np.arange(0, len(batch), 3)
        assert not exact[early_replies].any()
        assert windowed[early_replies].all()
        others = np.setdiff1d(np.arange(len(batch)), early_replies)
        assert exact[others].all() and windowed[others].all()

    def test_batch_counts_directions(self, small_config, protected, client_addr, server_addr):
        batch = self._scenario(client_addr, server_addr)
        filt = BitmapFilter(small_config, protected)
        filt.process_batch(batch, exact=True)
        assert filt.stats.outgoing == 2
        assert filt.stats.incoming == 3
        assert filt.stats.incoming_dropped == 2


class TestHelpers:
    def test_would_pass_incoming_is_nonmutating(
        self, bitmap_filter, client_addr, server_addr
    ):
        request = make_request(1.0, client_addr, server_addr)
        bitmap_filter.process(request)
        reply = make_reply(request, 1.1)
        before = bitmap_filter.stats.incoming
        assert bitmap_filter.would_pass_incoming(reply)
        assert bitmap_filter.stats.incoming == before

    def test_mark_key_opens_path(self, bitmap_filter, client_addr, server_addr):
        bitmap_filter.mark_key(IPPROTO_TCP, client_addr, 20, server_addr)
        inbound = Packet(0.1, IPPROTO_TCP, server_addr, 4242, client_addr, 20)
        assert bitmap_filter.process(inbound) is Decision.PASS

    def test_stats_drop_rate(self, bitmap_filter, client_addr, server_addr):
        stray = Packet(1.0, IPPROTO_TCP, server_addr, 1, client_addr, 2)
        bitmap_filter.process(stray)
        assert bitmap_filter.stats.incoming_drop_rate == 1.0

    def test_repr(self, bitmap_filter):
        assert "Te=20" in repr(bitmap_filter)
