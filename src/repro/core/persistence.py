"""Checkpoint/restore for bitmap-filter state.

An operator restarting an edge router wants to resume filtering without a
Te-long warm-up window in which every inbound reply would be dropped.  These
helpers snapshot a :class:`~repro.core.bitmap_filter.BitmapFilter` — the k
bit vectors, the rotation index/schedule, the configuration, and the
counters — into a single ``.npz`` file and restore it bit-exactly.

The protected address space is stored too, so a snapshot is self-contained;
restoring verifies the configuration rather than trusting the file, and a
SHA-256 over the stacked bit vectors is checked on load so a corrupted
snapshot raises :class:`SnapshotCorruptionError` instead of silently
restoring damaged filter state.

:func:`restore_filter` is the operational entry point: it loads a snapshot
*at a given wall-clock time*, catches up every rotation missed while the
filter was down, and opens a warm-up grace window sized to the staleness so
a restart does not drop every in-flight flow's inbound packets.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import IO, Optional, Union

import numpy as np

from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig
from repro.core.cuckoo import CuckooFlowTable
from repro.core.filter_api import _apply_layers, normalize_layers
from repro.core.hybrid import HybridVerifiedFilter
from repro.core.resilience import FailPolicy
from repro.net.address import AddressSpace, IPv4Network

#: Version 2 added the vector checksum and the fail policy; the optional
#: ``layers``/``cuckoo`` section (hybrid verification state) rides on the
#: same version — old readers never see the extra keys.
_FORMAT_VERSION = 2

_CUCKOO_ARRAYS = ("cuckoo_key_lo", "cuckoo_key_hi", "cuckoo_stamp")

SnapshotTarget = Union[str, Path, IO[bytes]]


class SnapshotCorruptionError(ValueError):
    """A snapshot's stored state does not match its integrity metadata."""


def _as_target(path: SnapshotTarget):
    """File objects pass through; everything else becomes a Path."""
    if hasattr(path, "write") or hasattr(path, "read"):
        return path
    return Path(path)


def _vector_digest(vectors: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(vectors).tobytes()).hexdigest()


def save_filter(filt: Union[BitmapFilter, HybridVerifiedFilter],
                path: SnapshotTarget) -> None:
    """Snapshot a filter's complete state to ``path`` (npz or binary file object).

    A :class:`~repro.core.hybrid.HybridVerifiedFilter` stack adds a
    ``layers`` record plus a separately checksummed ``cuckoo`` section so a
    warm restart keeps its exact verification table.
    """
    if filt.apd is not None:
        raise ValueError("APD-enabled filters hold indicator state that is "
                         "not checkpointable; snapshot the plain filter")
    if filt.is_down:
        raise ValueError("refusing to snapshot a failed filter; recover it "
                         "first so the rotation schedule is live")
    extra_arrays = {}
    vectors = np.stack([vec.as_numpy() for vec in filt.bitmap.vectors])
    meta = {
        "format_version": _FORMAT_VERSION,
        "config": asdict(filt.config),
        "current_index": filt.bitmap.current_index,
        "rotations": filt.bitmap.rotations,
        "next_rotation": filt.next_rotation,
        "stats": filt.stats.as_dict(),
        "protected_networks": [str(net) for net in filt.protected.networks],
        "fail_policy": filt.fail_policy.value,
        "vectors_sha256": _vector_digest(vectors),
    }
    if isinstance(filt, HybridVerifiedFilter):
        # The cuckoo table lives in the wrapper, not in the inner filter.
        cuckoo_arrays, cuckoo_meta = filt.table.export_state()
        extra_arrays.update(cuckoo_arrays)
        meta["layers"] = [spec.as_dict() for spec in filt.layers]
        meta["cuckoo"] = cuckoo_meta
    np.savez_compressed(_as_target(path), vectors=vectors,
                        metadata=json.dumps(meta), **extra_arrays)


def load_filter(path: SnapshotTarget) -> BitmapFilter:
    """Restore a filter snapshot written by :func:`save_filter`.

    Raises :class:`SnapshotCorruptionError` when the stored bit vectors do
    not match the snapshot's checksum or expected shape — restoring damaged
    state would silently change verdicts for up to Te seconds.
    """
    with np.load(_as_target(path), allow_pickle=False) as archive:
        vectors = archive["vectors"]
        meta = json.loads(str(archive["metadata"]))
        cuckoo_arrays = {
            name: archive[name] for name in _CUCKOO_ARRAYS if name in archive
        }
    version = meta.get("format_version")
    if version not in (1, _FORMAT_VERSION):
        raise ValueError(f"unsupported snapshot version {version}")

    config = BitmapFilterConfig(**meta["config"])
    protected = AddressSpace(
        [IPv4Network.parse(text) for text in meta["protected_networks"]]
    )
    fail_policy = FailPolicy(meta.get("fail_policy", FailPolicy.FAIL_CLOSED.value))
    filt = BitmapFilter(config, protected, fail_policy=fail_policy)

    expected_shape = (config.num_vectors, (1 << config.order) // 8)
    if vectors.shape != expected_shape:
        raise SnapshotCorruptionError(
            f"snapshot vectors {vectors.shape} do not match config {expected_shape}"
        )
    stored_digest = meta.get("vectors_sha256")
    if version >= 2:
        if stored_digest is None:
            raise SnapshotCorruptionError(
                "snapshot metadata is missing the vector checksum"
            )
        actual = _vector_digest(vectors)
        if actual != stored_digest:
            raise SnapshotCorruptionError(
                "snapshot bit vectors failed checksum verification "
                f"(stored {stored_digest[:12]}…, computed {actual[:12]}…); "
                "the file is corrupted — fall back to a cold start with a "
                "warm-up grace window instead of trusting this state"
            )
    filt.apply_snapshot_state(
        vectors,
        current_index=int(meta["current_index"]),
        bitmap_rotations=int(meta["rotations"]),
        next_rotation=float(meta["next_rotation"]),
        stats=meta["stats"],
    )

    layer_meta = meta.get("layers")
    if not layer_meta:
        return filt
    wrapped = _apply_layers(filt, normalize_layers(layer_meta))
    cuckoo_meta = meta.get("cuckoo")
    if cuckoo_meta is not None:
        if not cuckoo_arrays:
            raise SnapshotCorruptionError(
                "snapshot metadata records a cuckoo section but the table "
                "arrays are missing")
        table = CuckooFlowTable.from_state(cuckoo_arrays, cuckoo_meta)
        stored = cuckoo_meta.get("sha256")
        actual = table.state_digest()
        if stored is None or actual != stored:
            raise SnapshotCorruptionError(
                "snapshot cuckoo table failed checksum verification "
                f"(stored {str(stored)[:12]}…, computed {actual[:12]}…); "
                "restore the bitmap cold instead of trusting this state")
        wrapped.apply_table_state(table)
    return wrapped


def restore_filter(
    path: SnapshotTarget,
    now: float,
    warmup_grace: Optional[float] = None,
) -> BitmapFilter:
    """Load a snapshot and bring the filter back online at time ``now``.

    Every rotation missed between the snapshot and ``now`` runs immediately
    (missed-rotation catch-up — the schedule is never silently stretched).
    ``warmup_grace`` seconds of grace admit inbound bitmap misses after the
    restart; the default is Te when the snapshot missed at least one rotation
    (marks made since the snapshot are gone) and 0 for a fresh snapshot.
    """
    filt = load_filter(path)
    missed = filt.advance_to(now)
    if warmup_grace is None:
        warmup_grace = filt.config.expiry_timer if missed else 0.0
    if warmup_grace > 0:
        filt.begin_warmup(now + warmup_grace)
    return filt
