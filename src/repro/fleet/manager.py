"""Supervise a local fleet of ``repro serve`` daemon subprocesses.

:class:`FleetManager` spawns N daemons on ephemeral ports (waiting for
each one's machine-readable ``REPRO-SERVE READY`` line), hands their
:class:`~repro.fleet.router.NodeSpec` addresses to a router, and drives
the failure scenarios the fleet tests and the chaos harness need:

- :meth:`kill` — SIGKILL, the abrupt death a circuit breaker exists for.
- :meth:`stop` — SIGTERM graceful drain; the daemon writes its final
  snapshot before exiting.
- :meth:`restart` — relaunch a node (optionally ``--restore`` from a
  snapshot) on fresh ephemeral ports; the node keeps its *name*, so its
  ring share is unchanged — pass the new spec to
  :meth:`FleetRouter.update_node`.
- :meth:`warm_restart` — the snapshot handoff: publish the node's live
  ``/snapshot`` into the shared :class:`SnapshotStore`, stop it, and
  restart it restored — remapped flows keep their marked bits instead
  of cold-starting into a warm-up grace window.

On top of those, two zero-downtime control-plane operations:

- :meth:`rolling_reconfig` — change filter geometry across the whole
  fleet with no restart and no verdict divergence.  The manager picks
  one fleet-wide rebuild boundary (a rotation-aligned future timestamp),
  writes each node's reload file with that boundary, and SIGHUPs nodes
  one at a time, confirming each node's ``/healthz`` echoes the pending
  geometry before touching the next.  Every node — and the offline
  verification twin — rebuilds at the *same* packet timestamp, which is
  what keeps fleet verdicts byte-identical to offline replay through a
  live geometry change.
- :meth:`add_node` — scale out under load without serving cold: compute
  the keyspace share the arrival steals from the ring
  (:meth:`HashRing.stolen_share`), pre-warm it from the fleet's most
  recent :class:`SnapshotStore` state, and only then flip routing.

Every daemon runs ``--clock packet`` by default so fleet verdicts are
deterministic and comparable to offline replay.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
import urllib.request
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.core.bitmap_filter import FilterConfig
from repro.fleet.router import NodeSpec
from repro.fleet.store import SnapshotRef, SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.router import FleetRouter

__all__ = ["AddNodeReport", "FleetManager", "ManagedNode", "ReconfigReport",
           "RollingReconfigError"]

_READY_PREFIX = "REPRO-SERVE READY "

# Geometry fields echoed by the daemon's /healthz (both the live filter's
# and, mid-reconfig, the pending one's) — the per-node confirmation
# rolling_reconfig waits on.
_GEOMETRY_FIELDS = ("order", "num_vectors", "num_hashes",
                    "rotation_interval", "seed", "layers")


class RollingReconfigError(RuntimeError):
    """A rolling reconfig stopped before reaching every node.

    ``node`` is the first node that could not be reconfigured (dead, or
    never echoed the pending geometry); ``completed`` lists the nodes
    already carrying the new pending config.  Nodes *after* the failed
    one were never touched — the fleet stays serviceable on its current
    geometry, and the roll can be retried after the node is repaired.
    """

    def __init__(self, message: str, *, node: str,
                 completed: List[str]):
        super().__init__(message)
        self.node = node
        self.completed = list(completed)


@dataclass(frozen=True)
class ReconfigReport:
    """What a successful rolling reconfig did."""

    rebuild_at: float          # the fleet-wide rebuild boundary (packet time)
    nodes: List[str]           # nodes reconfigured, in roll order
    config: FilterConfig       # the geometry now pending fleet-wide


@dataclass(frozen=True)
class AddNodeReport:
    """What a ring-aware scale-out did."""

    spec: NodeSpec                        # the new node, ready to route
    stolen: Dict[str, int]                # keys stolen per donor node
    restored_from: Optional[SnapshotRef]  # None = cold start (empty store)

    @property
    def warm(self) -> bool:
        return self.restored_from is not None


@dataclass
class ManagedNode:
    """One supervised daemon: its spec, process, and log tail."""

    spec: NodeSpec
    process: subprocess.Popen
    snapshot_path: Path
    log: List[str] = field(default_factory=list)
    _reader: Optional[threading.Thread] = None

    @property
    def alive(self) -> bool:
        return self.process.poll() is None


class FleetManager:
    """Spawn, kill, warm-restart, reconfigure, and scale a local daemon
    fleet (see module docstring)."""

    def __init__(self, protected: str, *,
                 size: int = 3,
                 workdir: str,
                 clock: str = "packet",
                 fail_policy: str = "fail_closed",
                 order: int = 20,
                 num_vectors: int = 4,
                 num_hashes: int = 3,
                 rotation_interval: float = 5.0,
                 hash_seed: int = 0x5EED,
                 filter_kind: str = "bitmap",
                 ready_timeout: float = 30.0,
                 python: Optional[str] = None,
                 store: Optional[SnapshotStore] = None,
                 restore: Optional[Path] = None):
        if size < 1:
            raise ValueError("fleet size must be at least 1")
        if filter_kind not in ("bitmap", "hybrid"):
            raise ValueError(f"unknown filter kind {filter_kind!r}")
        self.protected = protected
        self.size = size
        self.workdir = Path(workdir)
        self.clock = clock
        self.fail_policy = fail_policy
        self.order = order
        self.num_vectors = num_vectors
        self.num_hashes = num_hashes
        self.rotation_interval = rotation_interval
        self.hash_seed = hash_seed
        self.filter_kind = filter_kind
        self.ready_timeout = ready_timeout
        self.python = python if python is not None else sys.executable
        self.store = (store if store is not None
                      else SnapshotStore(self.workdir / "store"))
        self.restore = restore
        self._nodes: Dict[str, ManagedNode] = {}

    @property
    def filter_args(self) -> List[str]:
        """The CLI geometry arguments every spawned daemon gets."""
        return [
            "--order", str(self.order), "--k", str(self.num_vectors),
            "--m", str(self.num_hashes), "--dt", str(self.rotation_interval),
            "--hash-seed", str(self.hash_seed), "--filter", self.filter_kind,
        ]

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> List[NodeSpec]:
        """Spawn the whole fleet; returns each node's spec, ready to route.

        With ``restore`` set, every node comes up warm from that snapshot
        (``--restore``) instead of cold — how a roaming client's filter
        state follows it to a new site's fleet.
        """
        if self._nodes:
            raise RuntimeError("fleet already started")
        self.workdir.mkdir(parents=True, exist_ok=True)
        for index in range(self.size):
            self._spawn(f"node{index}", restore_path=self.restore)
        return self.specs()

    def specs(self) -> List[NodeSpec]:
        return [node.spec for node in self._nodes.values()]

    def node(self, name: str) -> ManagedNode:
        return self._nodes[name]

    def reload_path(self, name: str) -> Path:
        """Where ``name``'s SIGHUP reload file lives."""
        return self.workdir / f"{name}.reload.json"

    def _spawn(self, name: str,
               restore_path: Optional[Path] = None) -> NodeSpec:
        snapshot_path = self.workdir / f"{name}.final.npz"
        command = [
            self.python, "-m", "repro", "serve",
            "--protected", self.protected,
            "--port", "0", "--http-port", "0",
            "--clock", self.clock,
            "--fail-policy", self.fail_policy,
            "--snapshot", str(snapshot_path),
            "--reload-config", str(self.reload_path(name)),
            *self.filter_args,
        ]
        if restore_path is not None:
            command += ["--restore", str(restore_path)]
        process = subprocess.Popen(
            command, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        spec = self._await_ready(name, process)
        node = ManagedNode(spec=spec, process=process,
                           snapshot_path=snapshot_path)
        node._reader = threading.Thread(
            target=self._drain_stdout, args=(node,),
            name=f"repro-fleet-log-{name}", daemon=True)
        node._reader.start()
        self._nodes[name] = node
        return spec

    def _await_ready(self, name: str,
                     process: subprocess.Popen) -> NodeSpec:
        timer = threading.Timer(self.ready_timeout, process.kill)
        timer.start()
        try:
            while True:
                line = process.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"daemon {name} exited before READY "
                        f"(rc={process.poll()})")
                if line.startswith(_READY_PREFIX):
                    info = json.loads(line[len(_READY_PREFIX):])
                    break
        finally:
            timer.cancel()
        host, port = info["data"]
        http_url = None
        if info.get("http"):
            http_host, http_port = info["http"]
            http_url = f"http://{http_host}:{http_port}"
        return NodeSpec(name=name, host=host, port=port, http_url=http_url)

    @staticmethod
    def _drain_stdout(node: ManagedNode) -> None:
        try:
            for line in node.process.stdout:
                node.log.append(line.rstrip("\n"))
        except ValueError:
            pass  # stdout closed underneath us at shutdown

    # -- failure injection ----------------------------------------------------

    def kill(self, name: str) -> None:
        """SIGKILL: the abrupt death the circuit breaker exists for."""
        node = self._nodes[name]
        node.process.kill()
        node.process.wait(timeout=30)

    def stop(self, name: str, timeout: float = 30.0) -> int:
        """SIGTERM graceful drain; the daemon writes its final snapshot."""
        node = self._nodes[name]
        if node.alive:
            node.process.send_signal(signal.SIGTERM)
        return node.process.wait(timeout=timeout)

    def restart(self, name: str,
                restore_path: Optional[Path] = None) -> NodeSpec:
        """Relaunch ``name`` on fresh ephemeral ports (same ring share).

        The previous process must already be dead (killed or stopped).
        Pass the returned spec to :meth:`FleetRouter.update_node`.
        """
        node = self._nodes[name]
        if node.alive:
            raise RuntimeError(f"node {name} still running; kill/stop first")
        del self._nodes[name]
        return self._spawn(name, restore_path=restore_path)

    # -- health ---------------------------------------------------------------

    def healthz(self, name: str, *, timeout: float = 5.0) -> dict:
        """The node's live ``/healthz`` document."""
        node = self._nodes[name]
        if not node.spec.http_url:
            raise ValueError(f"node {name} has no HTTP endpoint")
        url = node.spec.http_url.rstrip("/") + "/healthz"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read())

    # -- snapshot handoff -----------------------------------------------------

    def fetch_snapshot(self, name: str, *, timeout: float = 30.0) -> bytes:
        """The node's live checksummed snapshot over its HTTP endpoint."""
        node = self._nodes[name]
        if not node.spec.http_url:
            raise ValueError(f"node {name} has no HTTP endpoint")
        url = node.spec.http_url.rstrip("/") + "/snapshot"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.read()

    def publish_snapshot(self, name: str) -> SnapshotRef:
        """Fetch ``name``'s live snapshot and publish it to the store."""
        return self.store.put(name, self.fetch_snapshot(name))

    def publish_snapshots(self) -> Dict[str, SnapshotRef]:
        """Publish every *alive* node's snapshot; returns refs by node.

        Nodes that die between the liveness check and the fetch are
        skipped (a scale-out should not be blocked by one sick donor).
        """
        refs: Dict[str, SnapshotRef] = {}
        for name, node in sorted(self._nodes.items()):
            if not node.alive:
                continue
            try:
                refs[name] = self.publish_snapshot(name)
            except OSError:
                continue
        return refs

    def warm_restart(self, name: str) -> NodeSpec:
        """Snapshot → stop → restart ``--restore``: state-preserving churn.

        Publishes the live snapshot into the shared store first (so the
        handoff works even if the graceful drain later fails to write
        one — and so the rest of the fleet can warm-start from it too),
        stops the daemon, and relaunches it warm from the verified store
        copy — its flows keep their marked bits.
        """
        ref = self.publish_snapshot(name)
        self.store.read(ref)  # verify before we bet the restart on it
        self.stop(name)
        return self.restart(name, restore_path=ref.path)

    # -- rolling reconfig -----------------------------------------------------

    @staticmethod
    def _geometry_of(source: dict) -> dict:
        return {key: source.get(key) for key in _GEOMETRY_FIELDS}

    def rolling_reconfig(self, new_config: FilterConfig, *,
                         margin: int = 2,
                         wait_applied: bool = False,
                         timeout: float = 30.0,
                         poll: float = 0.05) -> ReconfigReport:
        """Roll new filter geometry across the fleet, one node at a time.

        The router keeps serving throughout: each node stays on its old
        filter until the shared rebuild boundary, so there is no restart
        and no cold window.  Determinism is the point — the manager
        computes **one fleet-wide** ``rebuild_at`` (the latest upcoming
        rotation anywhere in the fleet plus ``margin`` rotation
        intervals of headroom) and every node rebuilds at exactly that
        packet timestamp, mid-batch if necessary.  An offline twin
        rebuilding at the same boundary
        (:func:`repro.sim.pipeline.run_filter_with_reconfig`) then
        reproduces the fleet's verdict stream byte for byte.

        Per node the roll is: write the reload file (new geometry +
        ``rebuild_at``), SIGHUP, and poll ``/healthz`` until the node
        echoes the new geometry as *pending* (or already applied) —
        only then is the next node touched.  A node that is dead or
        never confirms raises :class:`RollingReconfigError` with the
        roll aborted cleanly: later nodes were never signaled, and the
        fleet keeps serving on its current geometry.

        ``wait_applied=True`` additionally blocks until every node has
        *performed* the rebuild — only meaningful under a wall clock or
        with traffic flowing, since a packet-clock daemon crosses the
        boundary only when a packet does.
        """
        names = sorted(self._nodes)
        if not names:
            raise RuntimeError("fleet not started")
        target = {
            "order": new_config.order,
            "num_vectors": new_config.num_vectors,
            "num_hashes": new_config.num_hashes,
            "rotation_interval": new_config.rotation_interval,
            "seed": new_config.seed,
            "layers": new_config.layer_dicts(),
        }

        # One boundary for the whole fleet: past every node's next
        # rotation, with margin rotations of slack so every SIGHUP lands
        # before any packet can cross it.
        horizon = float("-inf")
        for name in names:
            if not self._nodes[name].alive:
                raise RollingReconfigError(
                    f"node {name} is dead; repair it before reconfiguring",
                    node=name, completed=[])
            try:
                health = self.healthz(name, timeout=timeout)
            except OSError as exc:
                raise RollingReconfigError(
                    f"node {name} unreachable during boundary collection: "
                    f"{exc}", node=name, completed=[]) from exc
            horizon = max(horizon, float(health["next_rotation"]))
        rebuild_at = horizon + margin * self.rotation_interval

        payload = dict(target)
        payload["fail_policy"] = self.fail_policy
        payload["rebuild_at"] = rebuild_at

        completed: List[str] = []
        for name in names:
            node = self._nodes[name]
            if not node.alive:
                raise RollingReconfigError(
                    f"node {name} died mid-roll "
                    f"(completed: {completed or 'none'})",
                    node=name, completed=completed)
            self.reload_path(name).write_text(json.dumps(payload))
            node.process.send_signal(signal.SIGHUP)
            if not self._await_geometry(name, target, timeout=timeout,
                                        poll=poll, pending_ok=True):
                raise RollingReconfigError(
                    f"node {name} never confirmed the new geometry "
                    f"(completed: {completed or 'none'})",
                    node=name, completed=completed)
            completed.append(name)

        if wait_applied:
            for name in names:
                if not self._await_geometry(name, target, timeout=timeout,
                                            poll=poll, pending_ok=False):
                    raise RollingReconfigError(
                        f"node {name} confirmed but never applied the "
                        "rebuild", node=name, completed=completed)

        # Future spawns and restarts come up on the new geometry.
        self.order = new_config.order
        self.num_vectors = new_config.num_vectors
        self.num_hashes = new_config.num_hashes
        self.rotation_interval = new_config.rotation_interval
        self.hash_seed = new_config.seed
        self.filter_kind = "hybrid" if new_config.layers else "bitmap"
        return ReconfigReport(rebuild_at=rebuild_at, nodes=completed,
                              config=new_config)

    def _await_geometry(self, name: str, target: dict, *,
                        timeout: float, poll: float,
                        pending_ok: bool) -> bool:
        deadline = time.monotonic() + timeout
        while True:
            if not self._nodes[name].alive:
                return False
            try:
                health = self.healthz(name, timeout=timeout)
            except OSError:
                health = None
            if health is not None:
                if self._geometry_of(health.get("filter") or {}) == target:
                    return True  # already applied
                pending = health.get("pending_geometry")
                if pending_ok and pending is not None \
                        and self._geometry_of(pending) == target:
                    return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll)

    # -- ring-aware scale-out -------------------------------------------------

    def add_node(self, router: "FleetRouter", *,
                 name: Optional[str] = None,
                 keys: Optional[np.ndarray] = None,
                 publish: bool = True,
                 sample_size: int = 65536) -> AddNodeReport:
        """Scale out by one node, pre-warmed, with routing flipped last.

        The sequence is warmth-first: (1) compute the keyspace share the
        arrival will steal from each current member
        (:meth:`HashRing.stolen_share` over ``keys``, or a deterministic
        uniform sample); (2) publish every live node's snapshot so the
        store holds the fleet's freshest state; (3) spawn the newcomer
        restored from :meth:`SnapshotStore.fleet_latest` — its stolen
        flows arrive already marked; (4) only once READY, flip routing
        via :meth:`FleetRouter.add_node`.  An empty store degrades to a
        cold spawn with a :class:`RuntimeWarning` — scale-out must not
        crash just because nobody published yet.
        """
        if name is None:
            index = 0
            while f"node{index}" in self._nodes:
                index += 1
            name = f"node{index}"
        elif name in self._nodes:
            raise ValueError(f"node {name!r} already in the fleet")
        if keys is None:
            rng = np.random.default_rng(self.hash_seed)
            keys = rng.integers(0, 2 ** 32, size=sample_size,
                                dtype=np.uint64)
        stolen = router.ring.stolen_share(name, keys)

        if publish:
            self.publish_snapshots()
        ref = self.store.fleet_latest()
        if ref is None:
            warnings.warn(
                f"snapshot store {self.store.root} is empty; node {name} "
                "cold-starts (its stolen flows hit warm-up grace)",
                RuntimeWarning, stacklevel=2)
            spec = self._spawn(name)
        else:
            self.store.read(ref)  # verify before betting the spawn on it
            spec = self._spawn(name, restore_path=ref.path)
        self.size = len(self._nodes)
        router.add_node(spec)
        return AddNodeReport(spec=spec, stolen=stolen, restored_from=ref)

    # -- teardown -------------------------------------------------------------

    def shutdown(self, timeout: float = 30.0) -> Dict[str, int]:
        """Gracefully stop every surviving node; returns exit codes."""
        codes: Dict[str, int] = {}
        for name, node in list(self._nodes.items()):
            if node.alive:
                node.process.send_signal(signal.SIGTERM)
        for name, node in list(self._nodes.items()):
            try:
                codes[name] = node.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                node.process.kill()
                codes[name] = node.process.wait(timeout=10)
        self._nodes.clear()
        return codes

    def __enter__(self) -> "FleetManager":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
