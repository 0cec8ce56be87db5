"""repro.serve — the online filtering daemon and its protocol.

Everything the offline harness does in batch, this package does live:
packets stream in over a socket, verdicts stream back in order, rotations
fire on the wall clock, and state survives restarts through checksummed
snapshots.  See :mod:`repro.serve.daemon` for the architecture and
``docs/serving.md`` for the wire protocol and operations runbook.
"""

from repro.serve.client import AsyncFilterClient, FilterClient
from repro.serve.daemon import FilterDaemon, ServeConfig
from repro.serve.errors import (
    ServeConnectionError,
    ServeError,
    ServeTimeoutError,
    ServerError,
    is_transient,
)
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    decode_packets,
    decode_verdicts,
    encode_frame,
    encode_packets,
    encode_verdicts,
)
from repro.serve.retry import (
    Deadline,
    RetryPolicy,
    async_call_with_retry,
    call_with_retry,
)
from repro.serve.scheduler import RotationScheduler
from repro.serve.state import snapshot_to_bytes, write_snapshot

__all__ = [
    "AsyncFilterClient",
    "DEFAULT_MAX_FRAME",
    "Deadline",
    "FilterClient",
    "FilterDaemon",
    "FrameDecoder",
    "ProtocolError",
    "RetryPolicy",
    "RotationScheduler",
    "ServeConfig",
    "ServeConnectionError",
    "ServeError",
    "ServeTimeoutError",
    "ServerError",
    "async_call_with_retry",
    "call_with_retry",
    "is_transient",
    "decode_packets",
    "decode_verdicts",
    "encode_frame",
    "encode_packets",
    "encode_verdicts",
    "snapshot_to_bytes",
    "write_snapshot",
]
