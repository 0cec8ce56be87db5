"""Tests for the unified PacketFilter protocol and FilterConfig.

Every admission filter in the repository — the bitmap filter, the
close-aware wrapper, all three SPI baselines, and the rate-limit
baseline — must satisfy the :class:`PacketFilter` protocol and agree
between its directional methods and the generic entry points.
"""

import json
import warnings
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.baselines.throttle import AggregateRateLimiter
from repro.core.bitmap_filter import BitmapFilter, Decision, FilterConfig
from repro.core.close_aware import CloseAwareBitmapFilter
from repro.core.filter_api import PacketFilter, PacketFilterMixin
from repro.core.resilience import FailPolicy
from repro.net.packet import PacketArray
from repro.spi.avltree import AvlTreeFilter
from repro.spi.hashlist import HashListFilter
from repro.spi.naive import NaiveExactFilter
from tests.conftest import make_reply, make_request


def all_filters(small_config, protected):
    return [
        BitmapFilter(small_config, protected),
        CloseAwareBitmapFilter(small_config, protected),
        NaiveExactFilter(protected),
        HashListFilter(protected),
        AvlTreeFilter(protected),
        AggregateRateLimiter(protected, trigger_pps=1e9, limit_pps=1e9),
    ]


class TestProtocolConformance:
    def test_every_filter_satisfies_protocol(self, small_config, protected):
        for filt in all_filters(small_config, protected):
            assert isinstance(filt, PacketFilter), type(filt).__name__

    def test_non_filters_rejected(self):
        assert not isinstance(object(), PacketFilter)

    def test_directional_methods_agree_with_process(
        self, small_config, protected, client_addr, server_addr
    ):
        for filt in all_filters(small_config, protected):
            request = make_request(1.0, client_addr, server_addr)
            filt.observe_out(request)
            assert filt.admit_in(make_reply(request, 1.5)) is True
            never_sent = make_request(1.0, client_addr, server_addr,
                                      sport=9123)
            admitted = filt.admit_in(make_reply(never_sent, 2.0))
            # Everything except the rate limiter is stateful and drops.
            if not isinstance(filt, AggregateRateLimiter):
                assert admitted is False, type(filt).__name__

    def test_batch_methods_agree_with_process_batch(
        self, small_config, protected, client_addr, server_addr
    ):
        requests = [make_request(1.0 + i, client_addr, server_addr,
                                 sport=5000 + i) for i in range(4)]
        replies = [make_reply(r, 2.0 + i) for i, r in enumerate(requests)]
        out_batch = PacketArray.from_packets(requests)
        in_batch = PacketArray.from_packets(replies)
        for filt in all_filters(small_config, protected):
            filt.observe_out_batch(out_batch)
            mask = filt.admit_in_batch(in_batch)
            assert mask.tolist() == [True] * 4, type(filt).__name__

    def test_process_batch_accepts_exact_keyword(self, small_config,
                                                 protected, client_addr,
                                                 server_addr):
        pkt = make_request(1.0, client_addr, server_addr)
        batch = PacketArray.from_packets([pkt])
        for filt in all_filters(small_config, protected):
            for exact in (True, False):
                mask = filt.process_batch(batch, exact=exact)
                assert len(mask) == 1

    def test_mixin_derives_from_process(self):
        calls = []

        class Fake(PacketFilterMixin):
            def process(self, pkt):
                calls.append(pkt)
                return Decision.PASS

            def process_batch(self, packets, exact=True):
                import numpy as np
                return np.ones(len(packets), dtype=bool)

        fake = Fake()
        fake.observe_out("p1")
        assert fake.admit_in("p2") is True
        assert calls == ["p1", "p2"]
        assert isinstance(fake, PacketFilter)


class TestProcessArrayRemoved:
    def test_shims_are_gone(self, small_config, protected):
        """The ``process_array`` deprecation shims completed their cycle:
        the name no longer exists on any filter class."""
        for filt in all_filters(small_config, protected):
            assert not hasattr(filt, "process_array"), type(filt).__name__

    def test_canonical_name_does_not_warn(self, protected, client_addr,
                                          server_addr):
        batch = PacketArray.from_packets(
            [make_request(1.0, client_addr, server_addr)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            NaiveExactFilter(protected).process_batch(batch)


class TestFilterConfig:
    def test_defaults_match_paper(self):
        cfg = FilterConfig.paper_default()
        assert (cfg.order, cfg.num_vectors, cfg.num_hashes) == (20, 4, 3)
        assert cfg.rotation_interval == 5.0
        assert cfg.fail_policy is FailPolicy.FAIL_CLOSED
        assert cfg.expiry_timer == 20.0
        assert cfg.guaranteed_window == 15.0
        assert cfg.memory_bytes == 4 * (1 << 20) // 8

    def test_frozen_and_keyword_only(self):
        cfg = FilterConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.order = 12
        with pytest.raises(TypeError):
            FilterConfig(12)  # positional geometry is not allowed

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(rotation_interval=0)
        with pytest.raises(ValueError):
            FilterConfig(num_hashes=0)
        with pytest.raises(ValueError):
            FilterConfig(warmup_grace=-1.0)

    def test_round_trip_with_bitmap_config(self, small_config):
        lifted = FilterConfig.from_bitmap_config(
            small_config, fail_policy=FailPolicy.FAIL_OPEN, warmup_grace=7.5)
        assert lifted.order == small_config.order
        assert lifted.fail_policy is FailPolicy.FAIL_OPEN
        assert replace(lifted, fail_policy=FailPolicy.FAIL_CLOSED,
                       warmup_grace=0.0) == small_config

    def test_config_sets_policy_and_grace(self, protected):
        cfg = FilterConfig(order=12, num_vectors=4, rotation_interval=2.0,
                           fail_policy=FailPolicy.FAIL_OPEN,
                           warmup_grace=6.0)
        filt = BitmapFilter(cfg, protected)
        assert filt.fail_policy is FailPolicy.FAIL_OPEN
        assert filt.in_warmup(5.9)
        assert not filt.in_warmup(6.1)
        # The stored config is the geometry only: the live policy is
        # filt.fail_policy, and the grace window is already open.
        assert filt.config == replace(cfg, fail_policy=FailPolicy.FAIL_CLOSED,
                                      warmup_grace=0.0)
        json.dumps(filt.config.as_dict())  # persistence requires JSON-safe

    def test_bare_field_construction(self, protected):
        filt = BitmapFilter(protected=protected, order=12,
                            rotation_interval=2.0)
        assert filt.config.order == 12
        assert filt.config.rotation_interval == 2.0

    def test_config_object_plus_fields_rejected(self, small_config,
                                                protected):
        with pytest.raises(TypeError):
            BitmapFilter(small_config, protected, order=12)

    def test_legacy_positional_config_still_works(self, small_config,
                                                  protected):
        filt = BitmapFilter(small_config, protected)
        assert filt.config == small_config
        assert filt.fail_policy is FailPolicy.FAIL_CLOSED
