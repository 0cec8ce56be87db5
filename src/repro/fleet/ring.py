"""Consistent-hash ring: flows to nodes, with minimal remap on churn.

The fleet partitions bitmap state by the flow's ``local_addr`` (the
protected-side address).  A modulo partition would remap almost every
flow when the fleet grows or shrinks by one node; a consistent-hash ring
remaps *only* the departed (or arriving) node's share, which is what
makes warm handoff and rolling reconfig tractable.

Each node is placed on a 64-bit circle at ``replicas`` pseudo-random
points (its *virtual nodes*, hashed from the node name — no coordination
needed); a key is owned by the first node point at or clockwise after
the key's own hash.  Key hashing is a SplitMix64 finalizer over the
address, vectorized with NumPy so a million-packet batch routes in one
``searchsorted`` — and deterministic across processes and
``PYTHONHASHSEED`` (no Python ``hash()`` anywhere).

Property tests (``tests/fleet/test_ring_properties.py``) pin the two
contracts that matter: key balance within a bound across N nodes, and
exact minimal remap — a key changes owner on node removal *iff* the
removed node owned it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Union

import numpy as np

__all__ = ["HashRing", "splitmix64"]

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(keys: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
    """SplitMix64 finalizer: uniform uint64 from any integer key.

    Accepts a scalar or an integer ndarray; vectorized, wrap-around
    arithmetic in uint64 throughout.
    """
    x = np.asarray(keys, dtype=np.uint64)
    with np.errstate(over="ignore"):  # uint64 wrap-around is the algorithm
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & _M64
        x = ((x ^ (x >> np.uint64(30)))
             * np.uint64(0xBF58476D1CE4E5B9)) & _M64
        x = ((x ^ (x >> np.uint64(27)))
             * np.uint64(0x94D049BB133111EB)) & _M64
        x = x ^ (x >> np.uint64(31))
    if np.isscalar(keys) or np.ndim(keys) == 0:
        return int(x)
    return x


def _node_points(name: str, replicas: int, seed: int) -> np.ndarray:
    """The node's virtual-node positions: one 64-bit point per replica."""
    points = np.empty(replicas, dtype=np.uint64)
    for i in range(replicas):
        digest = hashlib.blake2b(
            f"{seed}:{name}#{i}".encode(), digest_size=8).digest()
        points[i] = int.from_bytes(digest, "big")
    return points


class HashRing:
    """A consistent-hash ring over named nodes.

    ``replicas`` virtual nodes per real node smooth the share each node
    owns (higher = more even, marginally slower membership changes); the
    default 128 keeps the max/mean share imbalance comfortably below 2x
    for small fleets.  ``seed`` perturbs every placement, so two rings
    with different seeds assign independently.
    """

    def __init__(self, nodes: Iterable[str] = (), *,
                 replicas: int = 128, seed: int = 0x5EED):
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.replicas = replicas
        self.seed = seed
        self._nodes: List[str] = []
        self._points = np.empty(0, dtype=np.uint64)
        self._owners = np.empty(0, dtype=np.int32)
        for name in nodes:
            self.add(name)

    # -- membership -----------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """Current member names, in insertion-independent sorted order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def add(self, name: str) -> None:
        """Join ``name``; only keys landing on its points change owner."""
        if name in self._nodes:
            raise ValueError(f"node {name!r} already on the ring")
        self._nodes = sorted(self._nodes + [name])
        self._rebuild()

    def remove(self, name: str) -> None:
        """Leave ``name``; only keys it owned change owner."""
        try:
            self._nodes.remove(name)
        except ValueError:
            raise ValueError(f"node {name!r} not on the ring") from None
        self._rebuild()

    def _rebuild(self) -> None:
        if not self._nodes:
            self._points = np.empty(0, dtype=np.uint64)
            self._owners = np.empty(0, dtype=np.int32)
            return
        points = []
        owners = []
        for index, name in enumerate(self._nodes):
            node_points = _node_points(name, self.replicas, self.seed)
            points.append(node_points)
            owners.append(np.full(len(node_points), index, dtype=np.int32))
        all_points = np.concatenate(points)
        all_owners = np.concatenate(owners)
        order = np.argsort(all_points, kind="stable")
        self._points = all_points[order]
        self._owners = all_owners[order]

    # -- lookup ---------------------------------------------------------------

    def owner(self, key: int) -> str:
        """The node owning scalar ``key``."""
        if not self._nodes:
            raise ValueError("ring has no nodes")
        h = np.uint64(splitmix64(int(key)))
        index = int(np.searchsorted(self._points, h, side="left"))
        if index == len(self._points):
            index = 0  # wrap past the top of the circle
        return self._nodes[self._owners[index]]

    def owners_vec(self, keys: np.ndarray) -> np.ndarray:
        """Owner *indices* (into :attr:`nodes`) for an array of keys."""
        if not self._nodes:
            raise ValueError("ring has no nodes")
        hashes = splitmix64(np.asarray(keys).astype(np.uint64))
        indices = np.searchsorted(self._points, hashes, side="left")
        indices[indices == len(self._points)] = 0
        return self._owners[indices]

    def owners_of(self, keys: np.ndarray) -> List[str]:
        """Owner *names* for an array of keys (convenience over
        :meth:`owners_vec`)."""
        indices = self.owners_vec(keys)
        return [self._nodes[i] for i in indices]

    def shares(self, keys: np.ndarray) -> Dict[str, int]:
        """How many of ``keys`` each node owns (zero entries included)."""
        counts = np.bincount(self.owners_vec(keys), minlength=len(self._nodes))
        return {name: int(counts[i]) for i, name in enumerate(self._nodes)}

    def stolen_share(self, name: str, keys: np.ndarray) -> Dict[str, int]:
        """The keyspace share ``name`` would steal if it joined, by donor.

        Returns ``{donor: count}`` over ``keys``: how many of each
        current member's keys would move to the arrival.  The ring
        itself is not modified.  Because consistent-hash addition is
        minimal-remap (every mover lands on the arrival and nowhere
        else — a property-tested invariant), the values sum to exactly
        the arrival's share, and this is the *complete* remap a
        scale-out causes — which is what makes pre-warming the new node
        before flipping routing a bounded, predictable operation.
        """
        if name in self._nodes:
            raise ValueError(f"node {name!r} already on the ring")
        before = np.asarray(self.owners_of(keys))
        trial = HashRing(self._nodes, replicas=self.replicas, seed=self.seed)
        trial.add(name)
        moved = np.asarray(trial.owners_of(keys)) == name
        donors, counts = np.unique(before[moved], return_counts=True)
        return {str(donor): int(count)
                for donor, count in zip(donors, counts)}

    def __repr__(self) -> str:
        return (f"HashRing(nodes={self._nodes!r}, replicas={self.replicas}, "
                f"seed={self.seed:#x})")
