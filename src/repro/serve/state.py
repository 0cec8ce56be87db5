"""Snapshot plumbing for the daemon.

The checkpoint format is the checksummed snapshot v2 of
:mod:`repro.core.persistence`; warm starts go through
``build_filter(snapshot=path)``.

- :func:`snapshot_to_bytes` / :func:`write_snapshot` — serve a live
  filter's checkpoint over HTTP or persist the SIGTERM final snapshot.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Union

from repro.core.bitmap_filter import BitmapFilter
from repro.core.hybrid import HybridVerifiedFilter
from repro.core.persistence import save_filter

__all__ = [
    "snapshot_to_bytes",
    "write_snapshot",
]


def snapshot_to_bytes(filt: Union[BitmapFilter, HybridVerifiedFilter]) -> bytes:
    """The snapshot-v2 archive of ``filt``'s current state, in memory."""
    buffer = io.BytesIO()
    save_filter(filt, buffer)
    return buffer.getvalue()


def write_snapshot(filt: Union[BitmapFilter, HybridVerifiedFilter],
                   path: Union[str, Path]) -> Path:
    """Persist ``filt``'s current state as a snapshot-v2 file."""
    path = Path(path)
    path.write_bytes(snapshot_to_bytes(filt))
    return path
