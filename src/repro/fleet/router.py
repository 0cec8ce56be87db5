"""The fleet front end: consistent-hash routing with health-checked failover.

:class:`FleetRouter` makes N filter daemons look like one filter.  Each
packet's ``local_addr`` (the protected-side address) is consistent-hashed
onto a daemon node, so every flow's bitmap state lives on exactly one
node.  A batch is split by owner, each owned segment streams to its node
over a retrying :class:`~repro.serve.client.FilterClient` (all nodes
driven concurrently), and the verdict mask is scattered back into the
caller's packet order.

Failure handling is the point:

- Every node has a :class:`~repro.fleet.health.CircuitBreaker`.  Request
  failures (typed transient errors from the client: resets, timeouts,
  mid-stream disconnects) count against it; after the threshold the
  breaker opens and the node's flows are answered from the **fleet fail
  policy** without touching the network — ``fail_open`` admits them,
  ``fail_closed`` drops inbound — exactly the degraded-mode semantics a
  single filter applies during an outage (PR 1), lifted to the fleet.
  Both outcomes are counted in telemetry.
- Transient failures inside a stream trigger a reconnect (jittered
  exponential backoff under a deadline budget, via
  :mod:`repro.serve.retry`) and a resend of the unacknowledged frames —
  bitmap marking is idempotent, so a resend against a daemon that
  survived a dropped connection reproduces the same verdicts.
- A half-open breaker lets exactly one probe segment through; success
  re-admits the node, failure re-opens the breaker.

Time and sleeping are injectable (``clock``/``sleep``), so failover
logic is unit-tested against a fake clock — no real sleeps in
``tests/fleet/``.
"""

from __future__ import annotations

import threading
import urllib.request
from dataclasses import dataclass
from time import monotonic, sleep as _real_sleep
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.resilience import FailPolicy
from repro.fleet.health import BreakerState, CircuitBreaker
from repro.fleet.ring import HashRing
from repro.net.address import AddressSpace
from repro.net.packet import DIRECTION_INCOMING, PacketArray
from repro.serve.client import FilterClient
from repro.serve.errors import is_transient
from repro.serve.retry import RetryPolicy, call_with_retry
from repro.telemetry.registry import MetricsRegistry

__all__ = ["FleetRouter", "NodeSpec", "policy_verdicts"]


@dataclass(frozen=True)
class NodeSpec:
    """One daemon's addresses, as the router sees them."""

    name: str
    host: str
    port: int
    http_url: Optional[str] = None  # e.g. "http://127.0.0.1:9100"

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"


def policy_verdicts(packets: PacketArray, protected: AddressSpace,
                    fail_policy: FailPolicy) -> np.ndarray:
    """Degraded-mode verdicts for ``packets`` when no filter is reachable.

    Mirrors the single filter's outage behavior and the daemon's shed
    path: ``fail_open`` admits everything; ``fail_closed`` admits
    outgoing but drops inbound.
    """
    verdicts = np.ones(len(packets), dtype=bool)
    if fail_policy is FailPolicy.FAIL_CLOSED:
        directions = packets.directions(protected)
        verdicts[directions == DIRECTION_INCOMING] = False
    return verdicts


class _Segment:
    """One node's slice of one input batch."""

    __slots__ = ("batch_index", "positions", "packets")

    def __init__(self, batch_index: int, positions: np.ndarray,
                 packets: PacketArray):
        self.batch_index = batch_index
        self.positions = positions
        self.packets = packets


class _Instruments:
    def __init__(self, registry: MetricsRegistry, nodes: Sequence[str]):
        self._registry = registry
        self.nodes_gauge = registry.gauge(
            "repro_fleet_nodes", "Daemon nodes currently on the ring")
        self.packets = {}
        self.failovers = {}
        self.policy_packets = {
            policy.value: registry.counter(
                "repro_fleet_policy_packets_total",
                "Packets answered from the fleet fail policy, by policy",
                policy=policy.value)
            for policy in FailPolicy
        }
        self.retries = registry.counter(
            "repro_fleet_retries_total",
            "Reconnect attempts made after transient node failures")
        for name in nodes:
            self.add_node(name)

    def add_node(self, name: str) -> None:
        if name in self.packets:
            return
        self.packets[name] = self._registry.counter(
            "repro_fleet_packets_total",
            "Packets routed to each node", node=name)
        self.failovers[name] = self._registry.counter(
            "repro_fleet_failovers_total",
            "Stream failures that triggered failover handling, by node",
            node=name)


class FleetRouter:
    """Route packet batches across a daemon fleet with failover (see
    module docstring)."""

    def __init__(self, nodes: Sequence[NodeSpec], *,
                 protected: AddressSpace,
                 fail_policy: FailPolicy = FailPolicy.FAIL_CLOSED,
                 replicas: int = 128,
                 ring_seed: int = 0x5EED,
                 retry: Optional[RetryPolicy] = None,
                 connect_timeout: float = 5.0,
                 request_timeout: float = 10.0,
                 failure_threshold: int = 3,
                 reset_timeout: float = 2.0,
                 registry: Optional[MetricsRegistry] = None,
                 clock: Callable[[], float] = monotonic,
                 sleep: Callable[[float], None] = _real_sleep,
                 connect: Optional[Callable[[NodeSpec], FilterClient]] = None):
        if not nodes:
            raise ValueError("a fleet needs at least one node")
        names = [spec.name for spec in nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        self.protected = protected
        self.fail_policy = fail_policy
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay=0.05, max_delay=1.0, deadline=10.0)
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self._sleep = sleep
        self._connect = connect if connect is not None else self._tcp_connect
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._specs: Dict[str, NodeSpec] = {s.name: s for s in nodes}
        self._ring = HashRing(names, replicas=replicas, seed=ring_seed)
        self._breakers: Dict[str, CircuitBreaker] = {
            name: self._new_breaker() for name in names
        }
        self._clients: Dict[str, FilterClient] = {}
        self._m = _Instruments(self.registry, names)
        self._m.nodes_gauge.set(len(names))

    # -- construction helpers -------------------------------------------------

    def _tcp_connect(self, spec: NodeSpec) -> FilterClient:
        return FilterClient.connect(
            spec.host, spec.port,
            timeout=self.connect_timeout,
            request_timeout=self.request_timeout)

    def _new_breaker(self) -> CircuitBreaker:
        """A fresh breaker under this router's configured thresholds."""
        return CircuitBreaker(failure_threshold=self.failure_threshold,
                              reset_timeout=self.reset_timeout,
                              clock=self._clock)

    # -- membership -----------------------------------------------------------

    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def nodes(self) -> List[NodeSpec]:
        return [self._specs[name] for name in self._ring.nodes]

    def breaker(self, name: str) -> CircuitBreaker:
        return self._breakers[name]

    def add_node(self, spec: NodeSpec) -> None:
        """Join a node: ring membership, a fresh breaker, telemetry."""
        if spec.name in self._specs:
            raise ValueError(f"node {spec.name!r} already in the fleet")
        self._specs[spec.name] = spec
        self._ring.add(spec.name)
        self._breakers[spec.name] = self._new_breaker()
        self._m.add_node(spec.name)
        self._m.nodes_gauge.set(len(self._ring))

    def remove_node(self, name: str) -> NodeSpec:
        """Leave a node: its share remaps to the survivors (and only it)."""
        spec = self._specs.pop(name)
        self._ring.remove(name)
        self._breakers.pop(name, None)
        self._drop_client(name)
        self._m.nodes_gauge.set(len(self._ring))
        return spec

    def update_node(self, spec: NodeSpec) -> None:
        """Replace a node's addresses in place (a restart moved its ports).

        Ring placement is by *name*, so the node keeps exactly its old
        share.  The stale connection is dropped and the node's circuit
        breaker is **reset**: a warm swap means the supervisor just
        verified a live replacement, so failures accumulated against the
        old incarnation must not leave the healthy newcomer born OPEN
        (answering its whole share from the fail policy until a
        half-open probe happened to re-admit it).
        """
        if spec.name not in self._specs:
            raise ValueError(f"node {spec.name!r} not in the fleet")
        self._specs[spec.name] = spec
        self._drop_client(spec.name)
        self._breakers[spec.name] = self._new_breaker()

    def _drop_client(self, name: str) -> None:
        client = self._clients.pop(name, None)
        if client is not None:
            client.close()

    # -- health ---------------------------------------------------------------

    def breaker_states(self) -> Dict[str, BreakerState]:
        return {name: breaker.state
                for name, breaker in self._breakers.items()}

    # -- routing --------------------------------------------------------------

    def owners(self, packets: PacketArray) -> np.ndarray:
        """Owner indices (into the ring's sorted node list) per packet."""
        directions = packets.directions(self.protected)
        incoming = directions == DIRECTION_INCOMING
        local_addr = np.where(incoming, packets.dst, packets.src)
        return self._ring.owners_vec(local_addr.astype(np.uint64))

    def owner_names(self, packets: PacketArray) -> List[str]:
        names = self._ring.nodes
        return [names[i] for i in self.owners(packets)]

    def filter(self, packets: PacketArray) -> np.ndarray:
        """One batch in, its PASS mask out (in the caller's packet order)."""
        return self.filter_batches([packets])[0]

    def filter_batches(self, batches: Sequence[PacketArray], *,
                       window: int = 8) -> List[np.ndarray]:
        """Stream ``batches`` through the fleet; one mask per batch.

        Per-batch split by ring owner, per-node pipelined streaming (up
        to ``window`` frames in flight per node), nodes driven
        concurrently from one thread each.  A node that fails mid-stream
        is retried per the retry policy; once its breaker opens, its
        remaining segments are answered from the fleet fail policy.
        """
        node_names = self._ring.nodes
        per_node: Dict[str, List[_Segment]] = {}
        masks: List[np.ndarray] = []
        for batch_index, batch in enumerate(batches):
            masks.append(np.zeros(len(batch), dtype=bool))
            if not len(batch):
                continue
            owners = self.owners(batch)
            for node_index in np.unique(owners):
                positions = np.flatnonzero(owners == node_index)
                name = node_names[node_index]
                per_node.setdefault(name, []).append(
                    _Segment(batch_index, positions, batch[positions]))

        def run(name: str, segments: List[_Segment]) -> List[np.ndarray]:
            return self._run_node_segments(name, segments, window=window)

        involved = list(per_node.items())
        if len(involved) <= 1:
            results = {name: run(name, segments)
                       for name, segments in involved}
        else:
            results = {}
            errors: List[BaseException] = []

            def worker(name: str, segments: List[_Segment]) -> None:
                try:
                    results[name] = run(name, segments)
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=item,
                                        name=f"repro-fleet-{item[0]}")
                       for item in involved]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]

        for name, segments in involved:
            for segment, mask in zip(segments, results[name]):
                masks[segment.batch_index][segment.positions] = mask
        return masks

    # -- per-node streaming with failover -------------------------------------

    def _client(self, name: str) -> FilterClient:
        client = self._clients.get(name)
        if client is None:
            spec = self._specs[name]
            client = call_with_retry(
                lambda: self._connect(spec),
                policy=self.retry,
                clock=self._clock,
                sleep=self._sleep,
                on_retry=lambda i, exc: self._m.retries.inc())
            self._clients[name] = client
        return client

    def _policy_fill(self, segments: List[_Segment]) -> List[np.ndarray]:
        out = []
        for segment in segments:
            mask = policy_verdicts(segment.packets, self.protected,
                                   self.fail_policy)
            self._m.policy_packets[self.fail_policy.value].inc(
                len(segment.packets))
            out.append(mask)
        return out

    def _run_node_segments(self, name: str, segments: List[_Segment], *,
                           window: int) -> List[np.ndarray]:
        """All of one node's segments, in order, with retry + failover.

        Returns one verdict mask per segment.  Frames acknowledged before
        a failure keep their real verdicts; unacknowledged frames are
        resent after a reconnect; once the breaker opens (or retries are
        exhausted), the remainder is answered from the fail policy.
        """
        breaker = self._breakers[name]
        results: List[np.ndarray] = []
        index = 0
        while index < len(segments):
            if not breaker.allow():
                results.extend(self._policy_fill(segments[index:]))
                return results
            try:
                client = self._client(name)
            except Exception as exc:  # noqa: BLE001 - transient handled below
                if not is_transient(exc):
                    raise
                breaker.record_failure()
                self._m.failovers[name].inc()
                continue
            try:
                stream = client.filter_stream(
                    [segment.packets for segment in segments[index:]],
                    window=window)
                for mask in stream:
                    results.append(mask)
                    self._m.packets[name].inc(len(segments[index].packets))
                    index += 1
                    breaker.record_success()
            except Exception as exc:  # noqa: BLE001 - typed triage below
                self._drop_client(name)
                self._m.failovers[name].inc()
                if is_transient(exc):
                    # Reconnect (breaker- and retry-gated) and resend the
                    # unacknowledged frames; marking is idempotent.
                    breaker.record_failure()
                    continue
                # Fatal (e.g. the node answered FT_ERROR): answer this
                # segment from policy and move on — resending the same
                # frame would fail the same way.
                breaker.record_failure()
                results.extend(self._policy_fill(segments[index:index + 1]))
                index += 1
        return results

    # -- snapshots ------------------------------------------------------------

    def fetch_snapshot(self, name: str, *, timeout: float = 30.0) -> bytes:
        """The node's live checksummed snapshot, over its HTTP endpoint."""
        spec = self._specs[name]
        if not spec.http_url:
            raise ValueError(f"node {name!r} has no http_url")
        url = spec.http_url.rstrip("/") + "/snapshot"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read()

    # -- introspection / lifecycle --------------------------------------------

    def node_config(self, name: str) -> dict:
        """One node's FT_CONFIG self-description."""
        return self._client(name).config()

    def fleet_config(self) -> dict:
        """The fleet's common daemon config; raises on geometry skew.

        Every node must agree on filter geometry, protected networks,
        clock mode, and exactness — otherwise verdicts depend on which
        node a flow hashes to, which is a deployment error worth failing
        loudly on.
        """
        reference: Optional[dict] = None
        reference_node: Optional[str] = None
        for name in self._ring.nodes:
            info = self.node_config(name)
            comparable = {key: info[key] for key in
                          ("filter", "protected", "clock", "exact")}
            if reference is None:
                reference, reference_node = comparable, name
            elif comparable != reference:
                raise ValueError(
                    f"fleet config skew: node {name!r} disagrees with "
                    f"{reference_node!r}: {comparable} != {reference}")
        assert reference is not None
        return reference

    def close(self) -> None:
        """Best-effort orderly goodbye to every connected node."""
        for name in list(self._clients):
            client = self._clients.pop(name)
            try:
                client.goodbye(timeout=5.0)
            except Exception:  # noqa: BLE001 - closing anyway
                pass
            client.close()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
