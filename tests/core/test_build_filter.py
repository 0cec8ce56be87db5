"""Unit tests for the composable filter-stack factory.

:func:`repro.core.filter_api.build_filter` is the single construction
path for every filter stack in the repository: a bitmap filter below,
verification layers above, optional snapshot warm start.  These tests
pin the resolution rules — explicit arguments beat config fields beat
ambient context — and the arguments the factory refuses.
"""

import io
import warnings

import numpy as np
import pytest

from repro.core.bitmap_filter import (
    BitmapFilter,
    BitmapFilterConfig,
    FilterConfig,
)
from repro.core.filter_api import (
    build_filter,
    get_layers,
    layer_dicts,
    normalize_layers,
    use_layers,
)
from repro.core.hybrid import HybridVerifiedFilter, VerifySpec
from repro.core.persistence import save_filter
from repro.core.resilience import FailPolicy
from tests.conftest import make_reply, make_request

pytestmark = pytest.mark.core

CONFIG = BitmapFilterConfig(order=12, num_vectors=4, num_hashes=3,
                            rotation_interval=5.0)


class TestNormalizeLayers:
    def test_none_and_empty(self):
        assert normalize_layers(None) == ()
        assert normalize_layers(()) == ()

    def test_kind_name_builds_default_spec(self):
        layers = normalize_layers("verify")
        assert layers == (VerifySpec(),)

    def test_dict_form_round_trips(self):
        spec = VerifySpec(initial_order=6, scope=("172.16.0.0/24",))
        rebuilt = normalize_layers(layer_dicts((spec,)))
        assert rebuilt == (spec,)

    def test_spec_objects_pass_through(self):
        spec = VerifySpec(initial_order=5)
        assert normalize_layers([spec]) == (spec,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            normalize_layers("no-such-layer")

    def test_dict_without_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            normalize_layers([{"initial_order": 5}])

    def test_object_without_kind_rejected(self):
        with pytest.raises(TypeError, match="kind"):
            normalize_layers([object()])


class TestLayerResolution:
    def test_default_is_bare_bitmap(self, protected):
        filt = build_filter(CONFIG, protected)
        assert isinstance(filt, BitmapFilter)

    def test_explicit_layers_wrap(self, protected):
        filt = build_filter(CONFIG, protected, layers=("verify",))
        assert isinstance(filt, HybridVerifiedFilter)
        assert isinstance(filt.inner, BitmapFilter)

    def test_config_layers_honored(self, protected):
        config = FilterConfig(order=12, rotation_interval=5.0,
                              layers=("verify",))
        filt = build_filter(config, protected)
        assert isinstance(filt, HybridVerifiedFilter)

    def test_ambient_layers_honored(self, protected):
        with use_layers(("verify",)):
            assert get_layers() == (VerifySpec(),)
            filt = build_filter(CONFIG, protected)
        assert isinstance(filt, HybridVerifiedFilter)
        assert get_layers() == ()    # scope restored

    def test_explicit_overrides_ambient(self, protected):
        with use_layers(("verify",)):
            filt = build_filter(CONFIG, protected, layers=())
        assert isinstance(filt, BitmapFilter)

    def test_spec_parameters_reach_the_table(self, protected):
        spec = VerifySpec(initial_order=6, lifetime=7.0)
        filt = build_filter(CONFIG, protected, layers=(spec,))
        assert filt.table.order == 6
        assert filt.table.lifetime == 7.0


class TestBackendResolution:
    def test_serial_by_default(self, protected):
        filt = build_filter(CONFIG, protected)
        assert isinstance(filt, BitmapFilter)

    def test_serial_spelling_still_accepted(self, protected):
        filt = build_filter(CONFIG, protected, backend="serial")
        assert isinstance(filt, BitmapFilter)

    def test_unknown_backend_rejected(self, protected):
        with pytest.raises(ValueError, match="serial"):
            build_filter(CONFIG, protected, backend="quantum")

    def test_named_parallel_backend(self, protected):
        """The parallel backends are gone: naming one is an error that
        points at the one remaining spelling."""
        for name in ("sharded", "shared"):
            with pytest.raises(ValueError, match="serial"):
                build_filter(CONFIG, protected, backend=name)

    def test_ambient_backend_with_layers(self, protected):
        """The serial spelling composes with the ambient layer stack."""
        with use_layers(("verify",)):
            filt = build_filter(CONFIG, protected, backend="serial")
        assert isinstance(filt, HybridVerifiedFilter)
        assert isinstance(filt.inner, BitmapFilter)

    def test_workers_argument_rejected(self, protected):
        with pytest.raises(TypeError, match="workers"):
            build_filter(CONFIG, protected, workers=2)
        with pytest.raises(TypeError, match="workers"):
            build_filter(protected=protected, order=12, workers=2)

    def test_fail_policy_and_config_fields(self, protected):
        filt = build_filter(protected=protected, order=12,
                            rotation_interval=2.0,
                            fail_policy=FailPolicy.FAIL_OPEN,
                            layers=("verify",))
        assert filt.fail_policy is FailPolicy.FAIL_OPEN
        assert filt.config.order == 12


class TestSnapshotRestore:
    def _run_and_snapshot(self, protected, client, server):
        filt = build_filter(CONFIG, protected,
                            layers=(VerifySpec(initial_order=4),))
        for i in range(20):
            request = make_request(1.0 + 0.1 * i, client, server,
                                   sport=15_000 + i)
            filt.process(request)
            filt.process(make_reply(request, request.ts + 0.04))
        buffer = io.BytesIO()
        save_filter(filt, buffer)
        buffer.seek(0)
        return filt, buffer

    def test_snapshot_rebuilds_recorded_stack(self, protected, client_addr,
                                              server_addr):
        filt, snap = self._run_and_snapshot(protected, client_addr,
                                            server_addr)
        restored = build_filter(snapshot=snap)
        assert isinstance(restored, HybridVerifiedFilter)
        assert restored.layers == filt.layers
        assert restored.table.state_digest() == filt.table.state_digest()
        assert restored.next_rotation == filt.next_rotation
        assert np.array_equal(
            np.stack([v.as_numpy() for v in restored.bitmap.vectors]),
            np.stack([v.as_numpy() for v in filt.bitmap.vectors]))

    def test_snapshot_layers_override_drops_table(self, protected,
                                                  client_addr, server_addr):
        _, snap = self._run_and_snapshot(protected, client_addr, server_addr)
        restored = build_filter(snapshot=snap, layers=())
        assert isinstance(restored, BitmapFilter)

    def test_snapshot_rejects_conflicting_arguments(self, protected):
        with pytest.raises(TypeError, match="snapshot"):
            build_filter(CONFIG, protected, snapshot=io.BytesIO())


class TestDeprecatedAliases:
    def test_build_filter_does_not_warn(self, protected):
        """The factory is the one spelling; it carries no deprecation path."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build_filter(CONFIG, protected)
            build_filter(CONFIG, protected, backend="serial")
