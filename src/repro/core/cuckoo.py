"""Exact cuckoo flow table — the verification tier behind the bitmap.

The {k×n}-bitmap is a probabilistic pre-filter: a false admit lets an attack
packet reach a client.  This module stores the *exact* directional flow keys
``(protocol, local-address, local-port, remote-address)`` so admits can be
confirmed, the Bloom-pre-filter → exact-table pattern of the DDoS-filtering
survey literature.

Design:

- **Two-choice bucketed cuckoo hashing.**  ``2**order`` buckets of
  ``slots_per_bucket`` slots.  A key hashes (splitmix64, same primitive as
  the bitmap's :class:`~repro.core.hashing.HashFamily`) to bucket ``b1``;
  its alternate bucket is ``b2 = b1 ^ tag`` where ``tag`` is derived from
  the *key's own hash* — so either bucket of a stored entry is computable
  from the entry alone, which is what makes relocation and exact rehash on
  resize possible.  ``tag`` is forced odd so ``b2 != b1``.
- **BFS kicking.**  On a full pair of buckets we breadth-first-search the
  relocation graph for the nearest free slot and shift entries along that
  path (oldest-queued-first, bounded node budget) — shorter chains and
  higher attainable load factors than the classic random-walk kick, and
  fully deterministic.
- **Lazy expiry.**  Entries carry the timestamp of their last refresh and
  are live for ``lifetime`` seconds (the hybrid filter resolves this to the
  bitmap's expiry timer Te by default).  Lookups never mutate, so scalar
  and batch paths observe identical tables.
- **Adaptive resize.**  When occupied slots cross ``grow_at`` of capacity
  the table first purges expired entries in place; if still over, it
  doubles (``order + 1``) and rehashes every live entry exactly.  A resize
  can also be requested externally (the hybrid filter's measured-FPR
  trigger).  Keys are stored whole — 20 bytes of key material per slot —
  precisely so a resize is an exact rehash, never a lossy fingerprint move.

Everything is plain NumPy arrays, snapshot-friendly: :meth:`export_state` /
:meth:`restore_state` round-trip the table through the checksummed v2
snapshot format (see :mod:`repro.core.persistence`).
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.hashing import splitmix64, splitmix64_vec

_MASK64 = (1 << 64) - 1

#: Stamp value marking a never-used slot (never "live": -inf > cutoff is False).
_EMPTY = -np.inf

_GROW_CAUSES = ("utilization", "pressure", "fpr")

#: Bounds on the inserts :meth:`CuckooFlowTable.insert_batch` resolves at
#: once (about an eighth of the bucket count: more keys per bucket make
#: more of the window depend on each kick).
_MIN_WINDOW = 128
_MAX_WINDOW = 8192


def pack_flow(proto: int, local_addr: int, local_port: int, remote_addr: int) -> Tuple[int, int]:
    """Pack a directional flow key into the (lo, hi) word pair the table stores.

    Identical packing to :func:`repro.core.hashing.pack_key` so the bitmap
    and the exact table agree on what "the same flow" means.
    """
    lo = ((local_addr & 0xFFFFFFFF) << 32) | ((local_port & 0xFFFF) << 16) | (proto & 0xFF)
    hi = remote_addr & 0xFFFFFFFF
    return lo, hi


def pack_flows_vec(
    proto: np.ndarray,
    local_addr: np.ndarray,
    local_port: np.ndarray,
    remote_addr: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`pack_flow` over field arrays."""
    lo = (
        (local_addr.astype(np.uint64) << np.uint64(32))
        | (local_port.astype(np.uint64) << np.uint64(16))
        | proto.astype(np.uint64)
    )
    hi = remote_addr.astype(np.uint64)
    return lo, hi


def _first_writer(writers: np.ndarray, written: np.ndarray,
                  queried: np.ndarray) -> np.ndarray:
    """For each queried value, the first of the ascending positions
    ``writers`` that wrote it (``written`` holds what each wrote), or a
    position past every writer when none did."""
    if not len(writers):
        return np.full(len(queried), np.iinfo(np.int64).max)
    values, first = np.unique(written, return_index=True)
    loc = np.minimum(np.searchsorted(values, queried), len(values) - 1)
    return np.where(values[loc] == queried, writers[first[loc]],
                    np.iinfo(np.int64).max)


def _propose(cand: np.ndarray, free: np.ndarray) -> Tuple[np.ndarray, int]:
    """Sequential greedy placement of distinct new keys, in order: each
    takes the first of its candidate slots (``cand``, scan order) that is
    ``free`` and that no earlier key took.  Returns the slot id each takes
    (-1: none left) and how many leading keys that covers.

    Each key proposes its next free slot; the earliest proposer of a slot
    keeps it and the others move on, until nobody moves.  A key only ever
    gives way to an earlier one, so the fixed point is the greedy."""
    count, width = cand.shape
    if not count:
        return np.zeros(0, dtype=np.int64), 0
    # Each key's free slots in scan order, then -1 padding.
    queue = np.full((count, width + 1), -1, dtype=np.int64)
    rows, cols = np.nonzero(free)
    queue[rows, np.cumsum(free, axis=1)[rows, cols] - 1] = cand[rows, cols]
    keys = np.arange(count)
    ptr = np.zeros(count, dtype=np.int64)
    for _ in range(2 * width + 4):
        pick = queue[keys, ptr]
        live = np.flatnonzero(pick >= 0)
        # np.unique's first index per slot is its earliest proposer.
        lost = np.ones(len(live), dtype=bool)
        lost[np.unique(pick[live], return_index=True)[1]] = False
        if not lost.any():
            return pick, count
        ptr[live[lost]] += 1
    # Not settled: keys before the first one still moving gave way only to
    # each other, so their picks are final.
    return pick, int(live[lost][0])


class CuckooFlowTable:
    """Exact set of live directional flow keys with lazy time-based expiry.

    Parameters
    ----------
    order:
        log2 of the initial bucket count.
    slots_per_bucket:
        Entries per bucket (4 supports ~95% load factors).
    lifetime:
        Seconds an entry stays live after its last insert/refresh.
    seed:
        Hash seed; independent of the bitmap's seed.
    max_order:
        Resize ceiling — past it the table overwrites the stalest candidate
        slot instead of growing (counted in ``overwrites``).
    grow_at:
        Occupied-slot fraction that triggers purge-then-grow.
    max_kick_nodes:
        BFS node budget per displaced insert.
    """

    __slots__ = (
        "_order", "_slots", "_lifetime", "_seed", "_max_order", "_grow_at",
        "_max_kick_nodes", "_mask", "_key_lo", "_key_hi", "_stamp",
        "_occupied", "inserts", "refreshes", "kicks", "grows", "overwrites",
        "lookups", "hits", "grow_causes", "_epoch", "_path",
    )

    def __init__(
        self,
        order: int = 8,
        slots_per_bucket: int = 4,
        lifetime: float = 20.0,
        seed: int = 0xC0C0A,
        max_order: int = 24,
        grow_at: float = 0.85,
        max_kick_nodes: int = 64,
    ):
        if not 2 <= order <= 28:
            raise ValueError(f"cuckoo order must be in [2, 28], got {order}")
        if not order <= max_order <= 28:
            raise ValueError(f"max_order must be in [order, 28], got {max_order}")
        if slots_per_bucket < 1:
            raise ValueError(f"need at least one slot per bucket, got {slots_per_bucket}")
        if not lifetime > 0:
            raise ValueError(f"lifetime must be positive, got {lifetime}")
        if not 0.0 < grow_at <= 1.0:
            raise ValueError(f"grow_at must be in (0, 1], got {grow_at}")
        self._order = order
        self._slots = slots_per_bucket
        self._lifetime = float(lifetime)
        self._seed = splitmix64(seed & _MASK64)
        self._max_order = max_order
        self._grow_at = grow_at
        self._max_kick_nodes = max_kick_nodes
        self._alloc()
        self.inserts = 0
        self.refreshes = 0
        self.kicks = 0
        self.grows = 0
        self.overwrites = 0
        self.lookups = 0
        self.hits = 0
        self.grow_causes = {cause: 0 for cause in _GROW_CAUSES}
        self._epoch = 0     # bumped by every purge or grow
        self._path = ()     # buckets the last BFS relocation wrote

    def _alloc(self) -> None:
        buckets = 1 << self._order
        self._mask = buckets - 1
        self._key_lo = np.zeros((buckets, self._slots), dtype=np.uint64)
        self._key_hi = np.zeros((buckets, self._slots), dtype=np.uint64)
        self._stamp = np.full((buckets, self._slots), _EMPTY, dtype=np.float64)
        self._occupied = 0

    # -- geometry ---------------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    @property
    def num_buckets(self) -> int:
        return 1 << self._order

    @property
    def slots_per_bucket(self) -> int:
        return self._slots

    @property
    def capacity(self) -> int:
        return (1 << self._order) * self._slots

    @property
    def lifetime(self) -> float:
        return self._lifetime

    @property
    def max_order(self) -> int:
        """Growth ceiling: at this order inserts overwrite-stalest instead."""
        return self._max_order

    @property
    def grow_at(self) -> float:
        """Utilization fraction that triggers purge-then-grow."""
        return self._grow_at

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def occupancy(self) -> int:
        """Slots holding an entry (live or expired-but-not-yet-reclaimed)."""
        return self._occupied

    @property
    def utilization(self) -> float:
        return self._occupied / self.capacity

    @property
    def memory_bytes(self) -> int:
        """Bytes of key/stamp storage (8 + 8 + 8 per slot)."""
        return self._key_lo.nbytes + self._key_hi.nbytes + self._stamp.nbytes

    def live_count(self, now: float) -> int:
        """Entries still within their lifetime at ``now`` (O(capacity))."""
        return int((self._stamp > now - self._lifetime).sum())

    # -- hashing ----------------------------------------------------------------

    def _bucket_and_tag(self, lo: int, hi: int) -> Tuple[int, int]:
        h = splitmix64(lo ^ splitmix64(hi ^ self._seed))
        bucket = h & self._mask
        # The tag is derived from high hash bits and forced odd, so the
        # alternate bucket b ^ tag is always distinct and either bucket of a
        # stored key is recomputable from the key alone.
        tag = ((h >> 32) & self._mask) | 1
        return bucket, tag

    def _alt_bucket(self, bucket: int, lo: int, hi: int) -> int:
        b1, tag = self._bucket_and_tag(lo, hi)
        del b1
        return bucket ^ tag

    # -- scalar path ------------------------------------------------------------

    def contains(self, lo: int, hi: int, ts: float) -> bool:
        """Is the key live at time ``ts``?  Never mutates the table."""
        self.lookups += 1
        cutoff = ts - self._lifetime
        b1, tag = self._bucket_and_tag(lo, hi)
        klo, khi, stamp = self._key_lo, self._key_hi, self._stamp
        ulo, uhi = np.uint64(lo), np.uint64(hi)
        for b in (b1, b1 ^ tag):
            row_lo, row_hi, row_st = klo[b], khi[b], stamp[b]
            for s in range(self._slots):
                if row_st[s] > cutoff and row_lo[s] == ulo and row_hi[s] == uhi:
                    self.hits += 1
                    return True
        return False

    def insert(self, lo: int, hi: int, ts: float,
               gc_now: Optional[float] = None) -> None:
        """Insert or refresh the key with stamp ``ts``.

        ``gc_now`` bounds garbage collection: entries are only reclaimed
        (purged, dropped on grow, or treated as free slots) when expired
        relative to ``gc_now`` rather than ``ts``.  Batch replays pass the
        window start so an insert stamped late in a window can never evict
        an entry that an earlier lookup in the same window still considers
        live; the scalar path leaves it at the default (``ts``).
        """
        gc_now = ts if gc_now is None else min(gc_now, ts)
        self.inserts += 1
        self._insert(lo, hi, ts, gc_now)
        if self._occupied >= self._grow_at * self.capacity:
            self._purge_expired(gc_now)
            if self._occupied >= self._grow_at * self.capacity:
                self._grow(gc_now, cause="utilization")

    def _insert(self, lo: int, hi: int, ts: float, gc_now: float) -> None:
        cutoff = gc_now - self._lifetime
        b1, tag = self._bucket_and_tag(lo, hi)
        b2 = b1 ^ tag
        klo, khi, stamp = self._key_lo, self._key_hi, self._stamp
        ulo, uhi = np.uint64(lo), np.uint64(hi)
        # Refresh if present (live or expired — either way it's our slot now).
        for b in (b1, b2):
            row_lo, row_hi = klo[b], khi[b]
            for s in range(self._slots):
                if stamp[b, s] != _EMPTY and row_lo[s] == ulo and row_hi[s] == uhi:
                    stamp[b, s] = ts
                    self.refreshes += 1
                    return
        # Free slot: never-used or expired.
        for b in (b1, b2):
            for s in range(self._slots):
                st = stamp[b, s]
                if st == _EMPTY or st <= cutoff:
                    self._place(b, s, ulo, uhi, ts, was_empty=st == _EMPTY)
                    return
        # Both buckets full of live entries: BFS a relocation path.
        if self._bfs_insert(b1, b2, ulo, uhi, ts, cutoff):
            return
        # The relocation graph is jammed.  Grow if allowed, else overwrite
        # the stalest candidate slot (conservative: evicts the entry closest
        # to expiry).
        if self._order < self._max_order:
            self._grow(gc_now, cause="pressure")
            self._insert(lo, hi, ts, gc_now)
            return
        self.overwrites += 1
        rows = np.concatenate([stamp[b1], stamp[b2]])
        flat = int(rows.argmin())
        b, s = (b1, flat) if flat < self._slots else (b2, flat - self._slots)
        self._place(b, s, ulo, uhi, ts, was_empty=False)

    def _place(self, bucket: int, slot: int, ulo: np.uint64, uhi: np.uint64,
               ts: float, was_empty: bool) -> None:
        self._key_lo[bucket, slot] = ulo
        self._key_hi[bucket, slot] = uhi
        self._stamp[bucket, slot] = ts
        if was_empty:
            self._occupied += 1

    def _bfs_insert(self, b1: int, b2: int, ulo: np.uint64, uhi: np.uint64,
                    ts: float, cutoff: float) -> bool:
        """Find the nearest free slot reachable by relocations and shift
        entries along the path; the freed root slot takes the new key."""
        # paths[i] = (bucket, parent_index, slot_in_parent_bucket)
        paths = [(b1, -1, -1), (b2, -1, -1)]
        visited = {b1, b2}
        queue = deque((0, 1))
        stamp, klo, khi = self._stamp, self._key_lo, self._key_hi
        while queue and len(paths) < self._max_kick_nodes:
            i = queue.popleft()
            bucket = paths[i][0]
            for s in range(self._slots):
                st = stamp[bucket, s]
                if st == _EMPTY or st <= cutoff:
                    # Walk the path backwards, shifting each blocking entry
                    # into the slot just freed below it.
                    was_empty = st == _EMPTY
                    free_slot = s
                    cur = i
                    path = [bucket]
                    while paths[cur][1] != -1:
                        _, parent, parent_slot = paths[cur]
                        pb = paths[parent][0]
                        self._key_lo[bucket, free_slot] = klo[pb, parent_slot]
                        self._key_hi[bucket, free_slot] = khi[pb, parent_slot]
                        self._stamp[bucket, free_slot] = stamp[pb, parent_slot]
                        self.kicks += 1
                        bucket, free_slot, cur = pb, parent_slot, parent
                        path.append(bucket)
                    self._path = tuple(path)
                    self._place(bucket, free_slot, ulo, uhi, ts, was_empty=was_empty)
                    return True
            for s in range(self._slots):
                alt = self._alt_bucket(bucket, int(klo[bucket, s]), int(khi[bucket, s]))
                if alt not in visited:
                    visited.add(alt)
                    paths.append((alt, i, s))
                    queue.append(len(paths) - 1)
        return False

    # -- vectorized path --------------------------------------------------------

    def bucket_pairs(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Both candidate buckets of every key at the table's current order
        (what the batch methods take as ``buckets``)."""
        h = splitmix64_vec(lo ^ splitmix64_vec(hi ^ np.uint64(self._seed)))
        mask = np.uint64(self._mask)
        b1 = h & mask
        tag = ((h >> np.uint64(32)) & mask) | np.uint64(1)
        return b1.astype(np.int64), (b1 ^ tag).astype(np.int64)

    def contains_batch(self, lo: np.ndarray, hi: np.ndarray, ts: np.ndarray,
                       buckets: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                       ) -> np.ndarray:
        """Vectorized :meth:`contains`: boolean live-membership mask.

        ``buckets`` may pass :meth:`bucket_pairs` of the same keys."""
        lo = np.ascontiguousarray(lo, dtype=np.uint64)
        hi = np.ascontiguousarray(hi, dtype=np.uint64)
        n = len(lo)
        self.lookups += n
        if n == 0:
            return np.zeros(0, dtype=bool)
        cutoff = (np.asarray(ts, dtype=np.float64) - self._lifetime)[:, None]
        found = np.zeros(n, dtype=bool)
        for bucket in buckets if buckets is not None else self.bucket_pairs(lo, hi):
            hit = (
                (self._key_lo[bucket] == lo[:, None])
                & (self._key_hi[bucket] == hi[:, None])
                & (self._stamp[bucket] > cutoff)
            )
            found |= hit.any(axis=1)
        self.hits += int(found.sum())
        return found

    def insert_batch(self, lo: np.ndarray, hi: np.ndarray, ts: np.ndarray,
                     gc_now: Optional[float] = None,
                     buckets: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                     until_order: Optional[int] = None) -> int:
        """Insert keys in array order, bit-identical to sequential
        :meth:`insert` calls (pinned by the batch/scalar digest-parity
        tests); return how many were inserted.  Windows of inserts are
        resolved against the table once (:meth:`_resolve`) and then walked
        in order (:meth:`_walk`): the resolved inserts land as vectorized
        writes, and an insert the resolution cannot place exactly goes
        through the scalar :meth:`insert`.

        ``gc_now`` is forwarded to every :meth:`insert` — windowed replays
        pass the window start so collection stays conservative across the
        whole batch (see :meth:`insert`).  ``buckets`` may pass
        :meth:`bucket_pairs` of the same keys at the current order.  With
        ``until_order`` the batch stops right after the insert that grows
        the table to that order (none if it is there already)."""
        return self._insert_many(np.ascontiguousarray(lo, dtype=np.uint64),
                                 np.ascontiguousarray(hi, dtype=np.uint64),
                                 np.ascontiguousarray(ts, dtype=np.float64),
                                 gc_now, buckets, rehash=False,
                                 until_order=until_order)

    def _insert_many(self, lo, hi, ts, gc_now, buckets, rehash,
                     until_order=None) -> int:
        """The batch engine behind :meth:`insert_batch` and :meth:`_grow`.

        With ``rehash`` the keys are moved into a grown table, as the
        scalar ``_insert`` loop would: ``gc_now`` is the one fixed
        collection clock, ``inserts`` is not counted and the growth
        threshold is not checked."""
        if until_order is not None and self._order >= until_order:
            return 0
        n = len(lo)
        order = self._order
        b1, b2 = buckets if buckets is not None else self.bucket_pairs(lo, hi)
        done = start = 0
        while start < n:
            if self._order != order:  # a grow re-hashed every key
                if until_order is not None and self._order >= until_order:
                    break
                lo, hi, ts = lo[start:], hi[start:], ts[start:]
                done += start
                n -= start
                start = 0
                order = self._order
                b1, b2 = self.bucket_pairs(lo, hi)
            window = min(_MAX_WINDOW, max(_MIN_WINDOW, self.num_buckets >> 3))
            end = min(start + window, n)
            start += self._walk(lo[start:end], hi[start:end], ts[start:end],
                                b1[start:end], b2[start:end], gc_now, rehash)
        return done + start

    def _walk(self, lo, hi, ts, b1, b2, gc_now, rehash) -> int:
        """Resolve a window of inserts, then apply them in order; return
        how many were applied (at least one).

        Resolved inserts land as vectorized writes.  An insert the
        resolution blocked, or one that would reach the growth threshold,
        goes through the scalar path; every bucket that write touched (its
        two buckets and any BFS relocation path) is marked, and later
        inserts touching a marked bucket go scalar too.  The walk ends
        early after a purge or grow (the layout changed under the whole
        window) or once most of what is left is marked."""
        target, placed, fills, blocked, n = self._resolve(
            lo, hi, ts, b1, b2, gc_now, rehash)
        slots = self._slots
        limit = self._grow_at * self.capacity
        epoch = self._epoch
        filled = np.cumsum(fills[:n])
        pairs = np.stack((b1[:n], b2[:n]), axis=1)
        stop = blocked[:n].copy()
        invalid = np.zeros(n, dtype=bool)
        ahead = 0           # invalid inserts not yet reached
        pos = 0
        while True:
            nxt = pos + int(stop[pos:n].argmax()) if pos < n else n
            if nxt < n and not stop[nxt]:
                nxt = n
            before = int(filled[pos - 1]) if pos else 0
            if not rehash:
                # The scalar path purges or grows right after the insert
                # that reaches the threshold, so that insert stays scalar.
                reach = int(np.searchsorted(
                    filled, limit - self._occupied + before))
                nxt = min(nxt, max(reach, pos))
            if nxt > pos:
                run = slice(pos, nxt)
                rows, cols = np.divmod(target[run], slots)
                new = placed[run]
                placing = int(np.count_nonzero(new))
                if placing:
                    self._key_lo[rows[new], cols[new]] = lo[run][new]
                    self._key_hi[rows[new], cols[new]] = hi[run][new]
                    self._occupied += int(filled[nxt - 1]) - before
                # Fancy assignment takes the last write per slot, matching
                # sequential refreshes of a repeated key.
                self._stamp[rows, cols] = ts[run]
                if not rehash:
                    self.inserts += nxt - pos
                self.refreshes += nxt - pos - placing
            if nxt == n:
                return n
            self._path = ()
            if rehash:
                self._insert(int(lo[nxt]), int(hi[nxt]), float(ts[nxt]), gc_now)
            else:
                self.insert(int(lo[nxt]), int(hi[nxt]), float(ts[nxt]), gc_now)
            ahead -= int(invalid[nxt])
            pos = nxt + 1
            if self._epoch != epoch:
                return pos
            wrote = np.array((b1[nxt], b2[nxt]) + self._path, dtype=np.int64)
            hit = (pairs[pos:n, :, None] == wrote).any(axis=(1, 2))
            hit &= ~invalid[pos:n]
            marked = int(np.count_nonzero(hit))
            if marked:
                invalid[pos:n] |= hit
                stop[pos:n] |= hit
                ahead += marked
                if 2 * ahead > n - pos:
                    return pos

    def _resolve(self, lo, hi, ts, b1, b2, gc_now, rehash):
        """Where each insert of a window lands when the window is applied
        in order to today's layout.

        Returns ``(target, placed, fills, blocked, n)``: the slot id
        (``bucket * slots + slot``) each insert writes, which inserts place
        a new key, which of those fill a never-used slot, which inserts the
        resolution cannot place exactly, and how many leading inserts the
        resolution covers.

        An insert refreshes its own slot (b1 first, then b2); a key new to
        the table takes the first free slot of b1, then of b2, that no
        earlier insert of the window took, and its repeats refresh that
        slot.  New keys sharing a bucket therefore take successive free
        slots: each proposes its next free slot, the earliest proposer of
        a slot keeps it and the others move on, until nobody moves — the
        sequential greedy, since a proposer only ever gives way to an
        earlier one.  Blocked are: a new key with no free slot left (it
        kicks or grows), a refresh whose own slot an earlier placement
        took, and a placement into a bucket where an earlier write could
        turn a slot between free and live for it."""
        n = len(lo)
        slots = self._slots
        positions = np.arange(n)
        span = np.arange(slots)
        # Each insert's candidate slot ids in scan order: b1's, then b2's.
        cand = np.concatenate((b1[:, None] * slots + span,
                               b2[:, None] * slots + span), axis=1)
        stamp = self._stamp.reshape(-1)
        cand_stamp = stamp[cand]
        target = np.full(n, -1, dtype=np.int64)
        first = positions
        if not rehash:  # a rehash moves distinct keys into a fresh table
            own = ((cand_stamp != _EMPTY)
                   & (self._key_lo.reshape(-1)[cand] == lo[:, None])
                   & (self._key_hi.reshape(-1)[cand] == hi[:, None]))
            col = own.argmax(axis=1)
            present = own[positions, col]
            target[present] = cand[positions, col][present]
            absent = np.flatnonzero(~present)
            # lexsort is stable: a key's group starts at its first position.
            order = absent[np.lexsort((hi[absent], lo[absent]))]
            head = np.ones(len(order), dtype=bool)
            head[1:] = ((lo[order][1:] != lo[order][:-1])
                        | (hi[order][1:] != hi[order][:-1]))
            first = positions.copy()
            first[order] = order[np.maximum.accumulate(
                np.where(head, np.arange(len(order)), 0))]
            new = absent[first[absent] == absent]
        else:
            new = positions
        repeat = first != positions
        if rehash:
            cutoff = np.full(len(new), gc_now - self._lifetime)
        else:
            cutoff = (ts[new] if gc_now is None
                      else np.minimum(gc_now, ts[new])) - self._lifetime
        pick, settled = _propose(cand[new], cand_stamp[new] <= cutoff[:, None])
        target[new] = pick
        n = len(lo) if settled == len(new) else int(new[settled])
        target[repeat] = target[first[repeat]]
        placed = np.zeros(len(lo), dtype=bool)
        placed[new] = pick >= 0
        old = np.where(repeat, ts[first], stamp[np.maximum(target, 0)])
        fills = placed & (old == _EMPTY)
        placing = np.flatnonzero(placed)
        blocked = (target < 0) | (
            ~placed & ~repeat
            & (_first_writer(placing, target[placing], target) < positions))
        if len(new) and not rehash:
            # A write can turn a slot between free and live for a later
            # placement only if its new stamp, or a refreshed slot's old
            # one, is at or below that placement's cutoff.
            latest = np.max(cutoff)
            flips = np.flatnonzero((target >= 0) & (
                (ts <= latest) | (~placed & (old <= latest))))
            if len(flips):
                rows = target[flips] // slots
                for bucket in (b1, b2):
                    blocked[placing] |= (
                        _first_writer(flips, rows, bucket[placing]) < placing)
        return target, placed, fills, blocked, n

    # -- maintenance ------------------------------------------------------------

    def _purge_expired(self, now: float) -> None:
        dead = (self._stamp != _EMPTY) & (self._stamp <= now - self._lifetime)
        n = int(dead.sum())
        if n:
            self._stamp[dead] = _EMPTY
            self._occupied -= n
            self._epoch += 1

    def _grow(self, now: float, cause: str) -> None:
        if self._order >= self._max_order:
            return
        old_lo, old_hi, old_stamp = self._key_lo, self._key_hi, self._stamp
        self._order += 1
        self._alloc()
        self.grows += 1
        self.grow_causes[cause] += 1
        self._epoch += 1
        # Exact rehash of every live entry, in the old layout's order;
        # expired ones are garbage-collected by the move.
        live = old_stamp > now - self._lifetime
        self._insert_many(old_lo[live], old_hi[live], old_stamp[live], now,
                          None, rehash=True)

    def grow_for_pressure(self, now: float, cause: str = "fpr") -> bool:
        """Externally requested doubling (e.g. measured-FPR trigger).

        Returns False once the ``max_order`` ceiling is reached.
        """
        if self._order >= self._max_order:
            return False
        self._grow(now, cause=cause)
        return True

    # -- snapshot / copy --------------------------------------------------------

    def state_digest(self) -> str:
        """SHA-256 over the raw table arrays (geometry-independent of layout)."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(self._key_lo).tobytes())
        digest.update(np.ascontiguousarray(self._key_hi).tobytes())
        digest.update(np.ascontiguousarray(self._stamp).tobytes())
        return digest.hexdigest()

    def export_state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """(arrays, metadata) for the snapshot writer."""
        arrays = {
            "cuckoo_key_lo": self._key_lo.copy(),
            "cuckoo_key_hi": self._key_hi.copy(),
            "cuckoo_stamp": self._stamp.copy(),
        }
        meta = {
            "order": self._order,
            "slots_per_bucket": self._slots,
            "lifetime": self._lifetime,
            "seed": int(self._seed),
            "max_order": self._max_order,
            "grow_at": self._grow_at,
            "max_kick_nodes": self._max_kick_nodes,
            "occupied": self._occupied,
            "sha256": self.state_digest(),
        }
        return arrays, meta

    @classmethod
    def from_state(cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]) -> "CuckooFlowTable":
        """Rebuild a table from :meth:`export_state` output."""
        table = cls.__new__(cls)
        table._order = int(meta["order"])
        table._slots = int(meta["slots_per_bucket"])
        table._lifetime = float(meta["lifetime"])
        table._seed = int(meta["seed"])
        table._max_order = int(meta["max_order"])
        table._grow_at = float(meta["grow_at"])
        table._max_kick_nodes = int(meta["max_kick_nodes"])
        table._mask = (1 << table._order) - 1
        key_lo = np.ascontiguousarray(arrays["cuckoo_key_lo"], dtype=np.uint64)
        key_hi = np.ascontiguousarray(arrays["cuckoo_key_hi"], dtype=np.uint64)
        stamp = np.ascontiguousarray(arrays["cuckoo_stamp"], dtype=np.float64)
        shape = (1 << table._order, table._slots)
        for name, arr in (("key_lo", key_lo), ("key_hi", key_hi), ("stamp", stamp)):
            if arr.shape != shape:
                raise ValueError(
                    f"cuckoo snapshot {name} shape {arr.shape} does not match "
                    f"geometry {shape}"
                )
        table._key_lo = key_lo
        table._key_hi = key_hi
        table._stamp = stamp
        table._occupied = int(meta["occupied"])
        table.inserts = table.refreshes = table.kicks = 0
        table.grows = table.overwrites = table.lookups = table.hits = 0
        table.grow_causes = {cause: 0 for cause in _GROW_CAUSES}
        table._epoch = 0
        table._path = ()
        return table

    def copy(self) -> "CuckooFlowTable":
        """Independent deep copy (used when materializing snapshots)."""
        arrays, meta = self.export_state()
        clone = CuckooFlowTable.from_state(arrays, meta)
        clone.inserts = self.inserts
        clone.refreshes = self.refreshes
        clone.kicks = self.kicks
        clone.grows = self.grows
        clone.overwrites = self.overwrites
        clone.lookups = self.lookups
        clone.hits = self.hits
        clone.grow_causes = dict(self.grow_causes)
        return clone

    def counters(self) -> Dict[str, int]:
        return {
            "inserts": self.inserts,
            "refreshes": self.refreshes,
            "kicks": self.kicks,
            "grows": self.grows,
            "overwrites": self.overwrites,
            "lookups": self.lookups,
            "hits": self.hits,
        }

    def __repr__(self) -> str:
        return (
            f"CuckooFlowTable(order={self._order}, slots={self._slots}, "
            f"occupied={self._occupied}/{self.capacity}, "
            f"lifetime={self._lifetime})"
        )
