"""Hybrid bitmap → cuckoo verification filter (the seventh ``PacketFilter``).

The {k×n}-bitmap is kept as the O(1) probabilistic pre-filter; every admit it
grants — all of them, or only those destined to a configured protected-subnet
subset — is *confirmed* against the exact
:class:`~repro.core.cuckoo.CuckooFlowTable` before the packet reaches a
client.  A bitmap admit whose exact flow key is absent from the table is a
false admit by construction and is denied, driving the false-admit rate on
the verified subset to ~0.

Semantics (chosen so verification is identical on every batch path):

- **Outgoing, filter up, in scope** → the flow key is inserted/refreshed in
  the table, *regardless* of APD mark suppression — the table tracks truth,
  the bitmap tracks what was marked.
- **Incoming, filter up, bitmap PASS, past warm-up, in scope** → confirmed
  against the table; a miss flips the verdict to DROP.
- **Warm-up admits are never denied**: during the grace window the bitmap
  itself has no state, so neither does the table — denying would turn the
  warm-up ramp into an outage.
- **Degraded mode is transparent**: while the inner filter is down, verdicts
  come from its fail policy untouched, and nothing is inserted (the table
  must not learn from traffic the bitmap never saw).

The wrapper composes over a
:class:`~repro.core.bitmap_filter.BitmapFilter` and delegates every
attribute it does not define (the whole degraded-mode/snapshot control
surface) through ``__getattr__``, so the fault injectors drive it
unchanged.  Verification itself is deterministic and has one order on
every path: batch inserts and lookups replay packet order exactly as the
scalar path does, and lookups never mutate the table.  ``exact`` only
chooses the inner filter's batch mode, so the ``exact=False`` mask is the
inner windowed mask confirmed in packet order — still a superset of the
exact mask, and never an admit of a flow the table learns later in the
batch.

Telemetry: ``repro_hybrid_confirmed_total`` / ``repro_hybrid_denied_total`` /
``repro_hybrid_inserts_total`` / ``repro_hybrid_resizes_total`` counters plus
``repro_hybrid_occupancy`` / ``repro_hybrid_utilization`` gauges, behind the
usual single ``is None`` hot-path guard.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Tuple

import numpy as np

from repro.core.cuckoo import CuckooFlowTable, pack_flow, pack_flows_vec
from repro.core.filter_api import Decision, PacketFilterMixin
from repro.net.address import AddressSpace
from repro.net.packet import (
    DIRECTION_INCOMING,
    DIRECTION_OUTGOING,
    Direction,
    Packet,
    PacketArray,
)
from repro.telemetry import MetricsRegistry, get_registry


@dataclass(frozen=True)
class VerifySpec:
    """Layer spec for the exact-verification tier (``kind="verify"``).

    ``scope`` is a tuple of CIDR strings naming the protected subnets whose
    inbound traffic must be confirmed; empty means *every* protected address.
    ``lifetime`` is how long a flow entry stays live after its last outgoing
    refresh; 0 resolves to the inner filter's expiry timer Te = k·dt, the
    longest the bitmap itself can remember a flow.

    ``resize_fpr`` and ``fpr_window`` do nothing.  They are still accepted
    and range-checked so that specs written with them (v2 snapshot layer
    metadata, reload and FT_CONFIG JSON) keep loading.  The table stores
    whole keys and below ``max_order`` never loses a live entry, so no
    table size changes a verdict, and only utilization and kick pressure
    grow it.
    """

    kind: ClassVar[str] = "verify"

    scope: Tuple[str, ...] = ()
    lifetime: float = 0.0
    initial_order: int = 8
    slots_per_bucket: int = 4
    max_order: int = 24
    grow_at: float = 0.85
    max_kick_nodes: int = 64
    resize_fpr: float = 0.0
    fpr_window: int = 4096
    seed: int = 0xC0C0A

    def __post_init__(self):
        object.__setattr__(self, "scope", tuple(self.scope))
        if self.lifetime < 0:
            raise ValueError(f"lifetime must be >= 0, got {self.lifetime}")
        if not 0.0 <= self.resize_fpr < 1.0:
            raise ValueError(f"resize_fpr must be in [0, 1), got {self.resize_fpr}")
        if self.fpr_window < 1:
            raise ValueError(f"fpr_window must be positive, got {self.fpr_window}")

    def as_dict(self) -> dict:
        """JSON-safe form carrying the ``kind`` discriminator."""
        out = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


#: Active operations :meth:`HybridVerifiedFilter._verify_exact` replays in
#: one vectorized piece; the cut bounds the replay's temporaries.
_PIECE_OPS = 16384

#: Odd multiplier of the 64-bit key mix :func:`_key_groups` sorts by.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _key_groups(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Indices that sort the (lo, hi) keys into groups of equal keys, each
    group in index order.

    One stable argsort on a 64-bit mix of the key; when two different keys
    share a mix value (an equal-mix neighbour with another key), it falls
    back to the exact two-key lexsort."""
    mix = lo ^ (hi * _MIX)
    order = np.argsort(mix, kind="stable")
    s_mix, s_lo, s_hi = mix[order], lo[order], hi[order]
    if np.any((s_mix[1:] == s_mix[:-1])
              & ((s_lo[1:] != s_lo[:-1]) | (s_hi[1:] != s_hi[:-1]))):
        order = np.lexsort((lo, hi))
    return order


class _HybridInstruments:
    """Bound ``repro_hybrid_*`` instruments for one live-registry filter."""

    __slots__ = ("confirmed", "denied", "inserts", "resizes",
                 "occupancy", "utilization")

    def __init__(self, registry: MetricsRegistry):
        self.confirmed = registry.counter(
            "repro_hybrid_confirmed_total",
            "Bitmap admits confirmed by the exact cuckoo flow table")
        self.denied = registry.counter(
            "repro_hybrid_denied_total",
            "Bitmap admits denied as false admits (absent from the flow table)")
        self.inserts = registry.counter(
            "repro_hybrid_inserts_total",
            "Outgoing flow keys inserted/refreshed into the flow table")
        self.resizes = registry.counter(
            "repro_hybrid_resizes_total",
            "Cuckoo table doublings (utilization or kick pressure)")
        self.occupancy = registry.gauge(
            "repro_hybrid_occupancy",
            "Occupied slots in the cuckoo flow table")
        self.utilization = registry.gauge(
            "repro_hybrid_utilization",
            "Occupied fraction of cuckoo table capacity")


class HybridVerifiedFilter(PacketFilterMixin):
    """Wrap any inner ``PacketFilter`` with exact cuckoo verification.

    Every attribute this class does not define — config, degraded-mode
    control surface, snapshot state, rotation clock — is the inner
    filter's, through ``__getattr__``; this class adds only the
    verification tier and its counters.
    """

    def __init__(
        self,
        inner,
        spec: Optional[VerifySpec] = None,
        *,
        table: Optional[CuckooFlowTable] = None,
        telemetry: Optional[MetricsRegistry] = None,
    ):
        if spec is None:
            spec = VerifySpec()
        self.spec = spec
        self._inner = inner
        self._scope = AddressSpace(list(spec.scope)) if spec.scope else None
        if table is not None:
            self.table = table
        else:
            lifetime = spec.lifetime or inner.config.expiry_timer
            self.table = CuckooFlowTable(
                order=spec.initial_order,
                slots_per_bucket=spec.slots_per_bucket,
                lifetime=lifetime,
                seed=spec.seed,
                max_order=spec.max_order,
                grow_at=spec.grow_at,
                max_kick_nodes=spec.max_kick_nodes,
            )
        self.confirmed = 0
        self.denied = 0
        self._flushed = {"confirmed": 0, "denied": 0, "inserts": 0, "resizes": 0}
        registry = telemetry if telemetry is not None else get_registry()
        self._tel = _HybridInstruments(registry) if registry.enabled else None

    # -- layer/introspection surface -----------------------------------------

    @property
    def inner(self):
        """The wrapped bitmap pre-filter."""
        return self._inner

    @property
    def layers(self) -> Tuple[VerifySpec, ...]:
        """Layer specs this stack was built from (for describe()/rebuild)."""
        return (self.spec,)

    @property
    def memory_bytes(self) -> int:
        return self._inner.config.memory_bytes + self.table.memory_bytes

    # -- scope ----------------------------------------------------------------

    def _in_scope(self, local_addr: int) -> bool:
        scope = self._scope
        return scope is None or scope.contains_int(local_addr)

    def _scope_mask(self, local_addr: np.ndarray) -> np.ndarray:
        if self._scope is None:
            return np.ones(len(local_addr), dtype=bool)
        mask = np.zeros(len(local_addr), dtype=bool)
        for net in self._scope.networks:
            mask |= (local_addr & np.uint32(net.netmask)) == np.uint32(net.prefix)
        return mask

    # -- verification core -----------------------------------------------------

    def _flush_telemetry(self) -> None:
        tel = self._tel
        if tel is None:
            return
        flushed = self._flushed
        table = self.table
        for name, instrument, current in (
            ("confirmed", tel.confirmed, self.confirmed),
            ("denied", tel.denied, self.denied),
            ("inserts", tel.inserts, table.inserts),
            ("resizes", tel.resizes, table.grows),
        ):
            delta = current - flushed[name]
            if delta:
                instrument.inc(delta)
                flushed[name] = current
        tel.occupancy.set(table.occupancy)
        tel.utilization.set(table.utilization)

    # -- scalar path -----------------------------------------------------------

    def process(self, pkt: Packet) -> Decision:
        inner = self._inner
        if inner.is_down:
            return inner.process(pkt)
        verdict = inner.process(pkt)
        direction = pkt.direction(inner.protected)
        if direction is Direction.OUTGOING:
            if self._in_scope(pkt.src):
                lo, hi = pack_flow(pkt.proto, pkt.src, pkt.sport, pkt.dst)
                self.table.insert(lo, hi, pkt.ts)
        elif (
            direction is Direction.INCOMING
            and verdict is Decision.PASS
            and pkt.ts >= inner.warmup_until
            and self._in_scope(pkt.dst)
        ):
            lo, hi = pack_flow(pkt.proto, pkt.dst, pkt.dport, pkt.src)
            if self.table.contains(lo, hi, pkt.ts):
                self.confirmed += 1
            else:
                self.denied += 1
                verdict = Decision.DROP
        if self._tel is not None:
            self._flush_telemetry()
        return verdict

    # -- batch path ------------------------------------------------------------

    def process_batch(self, packets: PacketArray, exact: bool = True, *,
                      directions: Optional[np.ndarray] = None) -> np.ndarray:
        """Inner batch verdicts (``exact`` picks its batch mode), with
        every in-scope admit past warm-up confirmed in packet order."""
        inner = self._inner
        if directions is None:
            directions = packets.directions(inner.protected)
        if inner.is_down:
            return inner.process_batch(packets, exact=exact,
                                       directions=directions)
        warmup_until = inner.warmup_until
        mask = inner.process_batch(packets, exact=exact, directions=directions)
        n = len(packets)
        if n == 0:
            return mask
        outgoing = directions == DIRECTION_OUTGOING
        incoming = directions == DIRECTION_INCOMING
        local = np.where(outgoing, packets.src, packets.dst)
        lport = np.where(outgoing, packets.sport, packets.dport)
        remote = np.where(outgoing, packets.dst, packets.src)
        lo, hi = pack_flows_vec(packets.proto, local, lport, remote)
        scope = self._scope_mask(local)
        ts = packets.ts
        insert_mask = outgoing & scope
        check_mask = incoming & mask & scope & (ts >= warmup_until)
        self._verify_exact(lo, hi, ts, insert_mask, check_mask, mask)
        if self._tel is not None:
            self._flush_telemetry()
        return mask

    def _verify_exact(self, lo, hi, ts, insert_mask, check_mask, mask) -> None:
        """Replay inserts and lookups in packet order — bit-identical to the
        scalar path (lookups never mutate, so interleaving is exact).

        The active operations are replayed vectorized in pieces of
        ``_PIECE_OPS``, which bounds the replay's temporaries, until the
        table reaches its ``max_order`` ceiling, where an insert may
        overwrite a *live* entry — the one mutation the vectorized replay
        cannot model; from there on, and for unordered timestamps, the
        replay is the literal scalar interleave."""
        idxs = np.nonzero(insert_mask | check_mask)[0]
        if len(idxs) == 0:
            return
        a_ts = ts[idxs]
        if not bool(np.all(np.diff(a_ts) >= 0.0)):
            self._verify_exact_scalar(lo, hi, ts, insert_mask, mask, idxs)
            return
        is_insert = insert_mask[idxs]
        a_lo, a_hi = lo[idxs], hi[idxs]
        table = self.table
        for start in range(0, len(idxs), _PIECE_OPS):
            piece = slice(start, start + _PIECE_OPS)
            done = 0
            if table.order < table.max_order:
                done = self._verify_exact_vec(
                    a_lo[piece], a_hi[piece], a_ts[piece], is_insert[piece],
                    idxs[piece], mask)
            if start + done < min(start + _PIECE_OPS, len(idxs)):
                self._verify_exact_scalar(lo, hi, ts, insert_mask, mask,
                                          idxs[start + done:])
                return

    def _verify_exact_vec(self, lo, hi, ts, is_insert, positions,
                          mask) -> int:
        """Vectorized exact replay of one piece of active operations (in
        packet order; ``positions`` index ``mask``).  Returns how many
        leading operations took effect — all of them, unless an insert grew
        the table to its ``max_order`` ceiling, in which case the piece
        stops right after that insert.

        Lookups never mutate the table, so every check's verdict is fully
        determined by (a) the latest *preceding* in-piece insert of the
        same key — its stamp is exactly that insert's timestamp — or,
        absent one, (b) the table state at the piece's start, at the
        check's own cutoff.  Purges and grows below the ceiling only ever
        drop entries already expired relative to an earlier timestamp,
        which (timestamps being monotonic — a fast-path precondition) every
        later check would reject anyway.  Inserts are then applied in
        order, which :meth:`CuckooFlowTable.insert_batch` keeps
        bit-identical to sequential scalar inserts."""
        table = self.table
        ins = np.flatnonzero(is_insert)
        chk = np.flatnonzero(~is_insert)
        b1, b2 = table.bucket_pairs(lo, hi)
        if len(chk) == 0:
            return table.insert_batch(lo, hi, ts, buckets=(b1, b2),
                                      until_order=table.max_order)
        live = np.zeros(len(lo), dtype=bool)
        live[chk] = table.contains_batch(lo[chk], hi[chk], ts[chk],
                                         buckets=(b1[chk], b2[chk]))
        pre_hits = int(np.count_nonzero(live))
        # Latest preceding insert per check, per key: group equal keys in
        # piece order and take a grouped running max of insert indices.
        order = _key_groups(lo, hi)
        s_lo, s_hi = lo[order], hi[order]
        new_group = np.empty(len(order), dtype=bool)
        new_group[0] = True
        new_group[1:] = (s_lo[1:] != s_lo[:-1]) | (s_hi[1:] != s_hi[:-1])
        group = np.cumsum(new_group, dtype=np.int64) - 1
        base = np.int64(len(lo) + 1)
        s_ins = is_insert[order]
        adjusted = np.where(s_ins, order, -1) + group * base
        pred = np.maximum.accumulate(adjusted) - group * base   # -1 → none
        pred = pred[~s_ins]
        at = order[~s_ins]
        has_pred = pred >= 0
        ok = np.where(
            has_pred,
            ts[np.maximum(pred, 0)] > ts[at] - table.lifetime,
            live[at])
        done = len(lo)
        if len(ins):
            applied = table.insert_batch(lo[ins], hi[ins], ts[ins],
                                         buckets=(b1[ins], b2[ins]),
                                         until_order=table.max_order)
            if table.order >= table.max_order:
                done = int(ins[applied - 1]) + 1
                kept = at < done
                at, ok = at[kept], ok[kept]
                # The lookups past the cut are replayed (and counted) again.
                table.lookups -= len(chk) - len(at)
        denied_pos = positions[at[~ok]]
        mask[denied_pos] = False
        checked = len(at)
        denied = len(denied_pos)
        self.confirmed += checked - denied
        self.denied += denied
        # contains_batch counted pre-state hits; the interleaved replay's
        # hit count is the confirmed count.
        table.hits += (checked - denied) - pre_hits
        return done

    def _verify_exact_scalar(self, lo, hi, ts, insert_mask, mask,
                             idxs) -> None:
        is_insert = insert_mask[idxs].tolist()
        lo_s = lo[idxs].tolist()
        hi_s = hi[idxs].tolist()
        ts_s = ts[idxs].tolist()
        table = self.table
        idx_l = idxs.tolist()
        for j in range(len(idx_l)):
            if is_insert[j]:
                table.insert(lo_s[j], hi_s[j], ts_s[j])
            elif table.contains(lo_s[j], hi_s[j], ts_s[j]):
                self.confirmed += 1
            else:
                self.denied += 1
                mask[idx_l[j]] = False

    # -- stats -----------------------------------------------------------------

    @property
    def stats(self):
        """Inner stats with denials moved from passed to dropped.

        An adjusted copy whenever there are denials: the inner filter keeps
        counting into its own stats, so the adjustment is never written
        back into them.
        """
        base = self._inner.stats
        if not self.denied:
            return base
        adjusted = type(base)(**base.as_dict())
        adjusted.incoming_passed -= self.denied
        adjusted.incoming_dropped += self.denied
        return adjusted

    # -- verification-aware control surface ------------------------------------

    def apply_table_state(self, table: CuckooFlowTable) -> None:
        """Adopt a restored cuckoo table (snapshot warm start)."""
        self.table = table

    def would_pass_incoming(self, pkt: Packet) -> bool:
        admitted = self._inner.would_pass_incoming(pkt)
        if not admitted or self._inner.is_down:
            return admitted
        if pkt.ts < self._inner.warmup_until or not self._in_scope(pkt.dst):
            return admitted
        lo, hi = pack_flow(pkt.proto, pkt.dst, pkt.dport, pkt.src)
        return self.table.contains(lo, hi, pkt.ts)

    def mark_key(self, proto: int, local_addr: int, local_port: int,
                 remote_addr: int) -> None:
        self._inner.mark_key(proto, local_addr, local_port, remote_addr)
        if self._in_scope(local_addr):
            # mark_key carries no timestamp (hole punching): stamp the entry
            # at the upcoming rotation boundary so it stays live a full
            # lifetime from roughly now.
            lo, hi = pack_flow(proto, local_addr, local_port, remote_addr)
            self.table.insert(lo, hi, self._inner.next_rotation)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return (
            f"HybridVerifiedFilter({self._inner!r}, confirmed={self.confirmed}, "
            f"denied={self.denied}, table={self.table!r})"
        )

