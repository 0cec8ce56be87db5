"""Correctness checks run on every benchmark run.

Each check returns ``(failed, details)``: ``failed`` counts packets whose
verdict disagrees with a reference (it feeds ``error_rate``), ``details``
says which check tripped.  Nothing aborts silently.

- At the default seed (medium scale) the offline confusion counts, the
  verdict digest and the hybrid tier's counters must equal pinned values.
- At every seed, seed-independent paper invariants hold instead: outgoing
  traffic always passes, the Fig. 5 attack filtering rate stays at the
  paper's level, legitimate replies are almost never dropped, every packet
  the exact path passes is passed by the windowed path too, and the
  hybrid tier's lookups add up.
- ``serve-clean`` compares served verdicts byte for byte with an offline
  ``run_filter_on_trace`` over the same lapped input (see
  :mod:`harness.serve`).
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

from harness.inputs import DEFAULT_SEED

#: Outputs of the unchanged program at seed 42, medium scale.
PINNED = {
    "offline-fig5": {
        "confusion": {
            "attack_dropped": 2399947, "attack_passed": 53,
            "normal_dropped": 642, "normal_passed": 132152,
            "background_dropped": 1658, "background_passed": 0,
        },
        "verdict_sha256":
            "2fb95dbc806949f0394d77b710adaf3a14b299ab45cea5f54e49dc44fbec695b",
    },
    "hybrid-insider": {
        "confusion": {
            "attack_dropped": 0, "attack_passed": 0,
            "normal_dropped": 387, "normal_passed": 73974,
            "background_dropped": 1459, "background_passed": 0,
        },
        "verdict_sha256":
            "a1252121ee70f5cb0179d13ee882b598440ddb505b7ef3a93f8ad89f5ea04872",
        "denied": 196,
        "table": {"inserts": 274180, "kicks": 4869, "grows": 3,
                  "overwrites": 0},
    },
}

#: Fig. 5: the paper filters 99.983% of the random scan; every seed must
#: stay within a factor of ~3 of its penetration.
MIN_ATTACK_FILTER_RATE = 0.9995
#: Replies later than Te are dropped by design; they stay a small share.
MAX_FALSE_POSITIVE_RATE = 0.02


def verdict_digest(verdicts: np.ndarray) -> str:
    return hashlib.sha256(
        np.asarray(verdicts, dtype=np.uint8).tobytes()).hexdigest()


def _pinned(workload: str, result, filt) -> Tuple[int, List[str]]:
    pinned = PINNED[workload]
    failed, details = 0, []
    confusion = result.confusion.as_dict()
    for key, want in pinned["confusion"].items():
        if confusion[key] != want:
            failed += abs(confusion[key] - want)
            details.append(f"{key}={confusion[key]} (pinned {want})")
    digest = verdict_digest(result.verdicts)
    if digest != pinned["verdict_sha256"]:
        failed = max(failed, 1)
        details.append(f"verdict digest {digest[:16]} differs from pinned")
    if "denied" in pinned:
        if filt.denied != pinned["denied"]:
            failed += abs(filt.denied - pinned["denied"])
            details.append(f"denied={filt.denied} (pinned {pinned['denied']})")
        counters = filt.table.counters()
        for key, want in pinned["table"].items():
            if counters[key] != want:
                failed = max(failed, 1)
                details.append(f"cuckoo {key}={counters[key]} "
                               f"(pinned {want})")
    return failed, details


def check_offline(workload: str, scale, trace, result,
                  filt) -> Tuple[int, List[str]]:
    """Check one offline pass; returns ``(failed packets, details)``."""
    verdicts = result.verdicts
    incoming = result.incoming_mask
    details: List[str] = []
    failed = 0
    if len(verdicts) != len(trace):
        return len(trace), [f"{len(verdicts)} verdicts for {len(trace)} "
                            "packets"]

    dropped_other = int((~verdicts & ~incoming).sum())
    if dropped_other:
        failed += dropped_other
        details.append(f"{dropped_other} non-incoming packets dropped")

    confusion = result.confusion
    if confusion.false_positive_rate > MAX_FALSE_POSITIVE_RATE:
        failed += confusion.normal_dropped
        details.append(f"false positive rate {confusion.false_positive_rate}")

    if workload == "offline-fig5":
        if confusion.attack_filter_rate < MIN_ATTACK_FILTER_RATE:
            failed += confusion.attack_passed
            details.append(
                f"attack filter rate {confusion.attack_filter_rate}")
        from harness.offline import build

        windowed = build(workload, scale, trace.protected).process_batch(
            trace.packets, exact=False)
        only_exact = int((verdicts & ~windowed).sum())
        if only_exact:
            failed += only_exact
            details.append(f"{only_exact} packets passed by the exact path "
                           "but dropped by the windowed path")
    else:
        table = filt.table
        counters = table.counters()
        from repro.net.packet import DIRECTION_OUTGOING

        directions = trace.packets.directions(trace.protected)
        outgoing = int((directions == DIRECTION_OUTGOING).sum())
        if counters["inserts"] != outgoing:
            failed = max(failed, 1)
            details.append(f"cuckoo inserts {counters['inserts']} != "
                           f"{outgoing} outgoing packets")
        if counters["lookups"] != filt.confirmed + filt.denied \
                or counters["hits"] != filt.confirmed:
            failed = max(failed, 1)
            details.append("cuckoo lookups do not add up to confirmed + "
                           "denied")

    if scale.name == "medium" and scale.seed == DEFAULT_SEED:
        more, why = _pinned(workload, result, filt)
        failed += more
        details.extend(why)
    return failed, details
