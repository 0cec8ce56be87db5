"""The unified admission API every filter in the repository speaks — and the
one factory that constructs them.

Two things live here:

**The protocol.**  :class:`PacketFilter` is the single interface all seven
filter implementations present (bitmap, close-aware, SPI baselines,
throttle, hybrid-verified):

- ``observe_out(pkt)`` / ``observe_out_batch(packets)`` — record outgoing
  traffic (mark the bitmap, insert/refresh flow state);
- ``admit_in(pkt) -> bool`` / ``admit_in_batch(packets) -> mask`` — judge
  incoming traffic;
- ``process(pkt) -> Decision`` / ``process_batch(packets) -> mask`` — the
  direction-agnostic entry points the directional methods derive from.

Batches are time-sorted :class:`~repro.net.packet.PacketArray` instances of
*mixed* traffic; direction classification stays inside the filter, so
``observe_out``/``admit_in`` on a packet of the other direction is safe
(non-incoming packets always admit).

**The factory.**  :func:`build_filter` is the one construction path for
every bitmap filter stack:

- a :class:`~repro.core.bitmap_filter.BitmapFilter` at the base, running
  in the calling process;
- a stack of **layers** wrapped around the base filter, described by frozen
  spec objects (e.g. :class:`~repro.core.hybrid.VerifySpec`, kind
  ``"verify"``) carried on ``FilterConfig.layers``, passed as
  ``layers=("verify", ...)``, or installed ambiently with
  :func:`use_layers`;
- an optional **snapshot** warm start (``snapshot=path``): the
  checksummed v2 archive is loaded, a fresh filter is built under the
  caller's telemetry registry, the state (bit vectors *and* any cuckoo
  verification table) is applied, and the recorded layer stack is
  re-wrapped.

CLI (``--filter hybrid``), serve, fleet, and snapshot restore all construct
filters through this one factory.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import fields
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Protocol, Tuple,
                    Union, runtime_checkable)

if TYPE_CHECKING:
    import numpy as np

    from repro.net.packet import Packet, PacketArray


class Decision(enum.Enum):
    """Verdict of a filter for one packet."""

    PASS = "pass"
    DROP = "drop"


@runtime_checkable
class PacketFilter(Protocol):
    """What every admission filter implements (bitmap, SPI, ablations)."""

    def process(self, pkt: "Packet") -> Decision:
        """Filter one packet of any direction, advancing time to it."""
        ...

    def process_batch(self, packets: "PacketArray",
                      exact: bool = True) -> "np.ndarray":
        """Filter a time-sorted mixed batch; returns a boolean PASS mask."""
        ...

    def observe_out(self, pkt: "Packet") -> None:
        """Record one outgoing packet (mark/refresh state, advance time)."""
        ...

    def admit_in(self, pkt: "Packet") -> bool:
        """Judge one incoming packet; True means admit."""
        ...

    def observe_out_batch(self, packets: "PacketArray") -> None:
        """Record a time-sorted batch of (predominantly) outgoing packets."""
        ...

    def admit_in_batch(self, packets: "PacketArray") -> "np.ndarray":
        """Judge a time-sorted batch; boolean admit mask per packet."""
        ...


class PacketFilterMixin:
    """Default directional methods derived from ``process``/``process_batch``.

    Mixing this into a class that provides the two generic entry points
    completes the :class:`PacketFilter` protocol.  Implementations with a
    cheaper direct path (no direction classification) may override any of
    the four.
    """

    def observe_out(self, pkt: "Packet") -> None:
        self.process(pkt)

    def admit_in(self, pkt: "Packet") -> bool:
        return self.process(pkt) is Decision.PASS

    def observe_out_batch(self, packets: "PacketArray") -> None:
        self.process_batch(packets)

    def admit_in_batch(self, packets: "PacketArray") -> "np.ndarray":
        return self.process_batch(packets)


# ---------------------------------------------------------------------------
# Layer registry: kind -> wrapper.
# ---------------------------------------------------------------------------

#: layer kind -> wrapper(inner_filter, spec, *, telemetry) and its spec class
LAYER_BUILDERS: Dict[str, Callable] = {}
LAYER_SPECS: Dict[str, type] = {}


def register_layer(spec_cls: type, builder: Callable) -> None:
    """Register a layer spec class (with a ``kind`` attribute) and its
    wrapper builder."""
    kind = spec_cls.kind
    LAYER_SPECS[kind] = spec_cls
    LAYER_BUILDERS[kind] = builder


def _require_layer_kind(kind: str):
    if kind not in LAYER_BUILDERS:
        import repro.core.hybrid  # noqa: F401  (registers "verify")
    if kind not in LAYER_BUILDERS:
        raise ValueError(
            f"unknown layer kind {kind!r}; registered: {sorted(LAYER_BUILDERS)}")
    return LAYER_SPECS[kind], LAYER_BUILDERS[kind]


# ---------------------------------------------------------------------------
# Layer specs: normalization and the ambient stack.
# ---------------------------------------------------------------------------

#: What callers may pass wherever layers are accepted: a kind name, a dict
#: with a "kind" discriminator, a ready spec object, or an iterable thereof.
LayerLike = Union[str, dict, object]


def normalize_layers(layers) -> Tuple[object, ...]:
    """Canonicalize any accepted layers form into a tuple of frozen specs.

    ``None`` → ``()``.  A bare string names a layer kind with default
    parameters (``"verify"``); a dict carries ``{"kind": ..., **fields}``
    (the JSON form used by ``describe()`` and SIGHUP reload); spec objects
    pass through.
    """
    if layers is None:
        return ()
    if isinstance(layers, (str, dict)) or not isinstance(layers, Iterable):
        layers = (layers,)
    out = []
    for entry in layers:
        if isinstance(entry, str):
            spec_cls, _ = _require_layer_kind(entry)
            out.append(spec_cls())
        elif isinstance(entry, dict):
            fields = dict(entry)
            kind = fields.pop("kind", None)
            if kind is None:
                raise ValueError(
                    f"layer dict needs a 'kind' discriminator, got {entry!r}")
            spec_cls, _ = _require_layer_kind(kind)
            out.append(spec_cls(**fields))
        else:
            kind = getattr(entry, "kind", None)
            if kind is None:
                raise TypeError(
                    f"layer spec {entry!r} has no 'kind' attribute")
            out.append(entry)
    return tuple(out)


def layer_dicts(layers) -> list:
    """JSON-safe ``as_dict()`` forms of a normalized layer stack."""
    return [spec.as_dict() for spec in normalize_layers(layers)]


_active_layers: Tuple[object, ...] = ()


def get_layers() -> Tuple[object, ...]:
    """The ambient layer stack :func:`build_filter` applies by default."""
    return _active_layers


@contextmanager
def use_layers(layers):
    """Scoped ambient layer stack; the CLI's ``--filter hybrid`` is exactly
    ``use_layers(("verify",))`` around the experiment run."""
    global _active_layers
    previous = _active_layers
    _active_layers = normalize_layers(layers)
    try:
        yield _active_layers
    finally:
        _active_layers = previous


def _apply_layers(filt, layers, *, telemetry=None):
    for spec in layers:
        _, builder = _require_layer_kind(spec.kind)
        filt = builder(filt, spec, telemetry=telemetry)
    return filt


# ---------------------------------------------------------------------------
# The factory.
# ---------------------------------------------------------------------------

def build_filter(
    config=None,
    protected=None,
    start_time: float = 0.0,
    apd=None,
    fail_policy=None,
    *,
    backend: str = "serial",
    telemetry=None,
    layers=None,
    snapshot=None,
    **config_fields,
):
    """Build a filter stack: a :class:`~repro.core.bitmap_filter.BitmapFilter`
    wrapped by verification layers, optionally warm-started from a snapshot.

    Parameters
    ----------
    config:
        A :class:`~repro.core.bitmap_filter.FilterConfig` (its
        ``fail_policy``, ``warmup_grace`` and ``layers`` are honored), a
        plain ``BitmapFilterConfig``, or None with bare ``**config_fields``.
    backend:
        Accepted for existing callers; ``"serial"`` is its only value, since
        every filter runs in the calling process.
    layers:
        Layer stack override — kind names, spec dicts, or spec objects.
        Defaults to ``config.layers`` when non-empty, else the ambient
        stack from :func:`use_layers`.
    snapshot:
        Path (or binary file object) of a checksummed v2 snapshot to warm
        start from.  The snapshot's config/protected/fail-policy are used
        (``config``/``protected`` must be None), its recorded layer stack
        is re-wrapped (explicit ``layers`` overrides), and any cuckoo
        verification table rides along.
    """
    if backend != "serial":
        raise ValueError(f"unknown backend {backend!r}: filters run in the "
                         "calling process, and \"serial\" is the only value")
    from repro.core.bitmap_filter import BitmapFilter, FilterConfig

    unknown = set(config_fields) - {f.name for f in fields(FilterConfig)}
    if unknown:
        raise TypeError(f"build_filter() got unknown argument(s) "
                        f"{sorted(unknown)}")

    if snapshot is not None:
        if config is not None or protected is not None or config_fields:
            raise TypeError("snapshot restore takes its config and protected "
                            "space from the snapshot; do not pass them")
        if apd is not None:
            raise TypeError("snapshots never hold APD state; attach the "
                            "policy after restoring")
        return _build_from_snapshot(snapshot, fail_policy=fail_policy,
                                    telemetry=telemetry, layers=layers)

    if layers is None:
        config_layers = getattr(config, "layers", ()) if config is not None else ()
        layers = config_layers or get_layers()
    layers = normalize_layers(layers)

    filt = BitmapFilter(config, protected, start_time=start_time, apd=apd,
                        fail_policy=fail_policy, telemetry=telemetry,
                        **config_fields)
    return _apply_layers(filt, layers, telemetry=telemetry)


def _build_from_snapshot(snapshot, *, fail_policy, telemetry, layers):
    import numpy as np

    from repro.core.bitmap_filter import BitmapFilter
    from repro.core.persistence import load_filter

    loaded = load_filter(snapshot)  # validates geometry + checksums
    restored_layers = getattr(loaded, "layers", ())
    inner = getattr(loaded, "inner", loaded)
    if layers is None:
        layers = restored_layers
    layers = normalize_layers(layers)
    if fail_policy is None:
        fail_policy = inner.fail_policy

    # A fresh shell under the caller's telemetry registry takes the state.
    start_time = inner.next_rotation - inner.config.rotation_interval
    filt = BitmapFilter(inner.config, inner.protected, start_time=start_time,
                        fail_policy=fail_policy, telemetry=telemetry)
    filt.apply_snapshot_state(
        np.stack([vec.as_numpy() for vec in inner.bitmap.vectors]),
        current_index=inner.bitmap.current_index,
        bitmap_rotations=inner.bitmap.rotations,
        next_rotation=inner.next_rotation,
        stats=inner.stats.as_dict(),
    )
    filt = _apply_layers(filt, layers, telemetry=telemetry)
    # Hand the restored verification table to the re-wrapped stack so warm
    # starts do not forget confirmed flows.
    table = getattr(loaded, "table", None)
    if table is not None and hasattr(filt, "apply_table_state"):
        if layers == tuple(restored_layers):
            filt.apply_table_state(table.copy())
    return filt
