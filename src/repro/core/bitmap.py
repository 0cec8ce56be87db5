"""The {k x n}-bitmap — k bloom-filter bit vectors with rotation (Figure 3).

The bitmap is the storage core of the filter: ``k`` bit vectors of ``2**n``
bits sharing the same m hash functions.  Marks go to **all** vectors; lookups
consult only the **current** vector; :meth:`rotate` (Algorithm 1) advances
the current index and clears the vector that was current, so the vector that
becomes current always holds between ``(k-1)*dt`` and ``k*dt`` seconds of
marking history.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.core.bitvector import BitVector, byte_masks


class Bitmap:
    """A {k x n}-bitmap: ``k`` bit vectors of ``2**n`` bits each."""

    __slots__ = ("_order", "_num_vectors", "_vectors", "_idx", "_rotations",
                 "_peak_utilization")

    def __init__(self, num_vectors: int, order: int):
        if num_vectors < 2:
            raise ValueError(
                f"a bitmap needs at least 2 vectors (one current, one expiring), got {num_vectors}"
            )
        self._order = order
        self._num_vectors = num_vectors
        self._vectors: List[BitVector] = [BitVector(order) for _ in range(num_vectors)]
        self._idx = 0
        self._rotations = 0
        self._peak_utilization = 0.0

    # -- properties ------------------------------------------------------------

    @property
    def order(self) -> int:
        """n — each vector holds 2**n bits."""
        return self._order

    @property
    def num_vectors(self) -> int:
        """k — the number of bloom-filter rows."""
        return self._num_vectors

    @property
    def num_bits_per_vector(self) -> int:
        return 1 << self._order

    @property
    def memory_bytes(self) -> int:
        """Total backing storage: ``k * 2**n / 8`` bytes."""
        return self._num_vectors * (1 << self._order) // 8

    @property
    def current_index(self) -> int:
        return self._idx

    @property
    def rotations(self) -> int:
        """How many times :meth:`rotate` has run."""
        return self._rotations

    @property
    def current(self) -> BitVector:
        """The bit vector lookups are checked against."""
        return self._vectors[self._idx]

    @property
    def vectors(self) -> Sequence[BitVector]:
        return tuple(self._vectors)

    def vector(self, index: int) -> BitVector:
        return self._vectors[index]

    # -- Algorithm 1: b.rotate ---------------------------------------------------

    def rotate(self) -> int:
        """Advance the current index and clear the vector left behind.

        Implements Algorithm 1 verbatim::

            last = idx
            idx  = (idx + 1) mod k
            clear bit-vector[last]
            return idx
        """
        last = self._idx
        # The outgoing current vector is at its fullest right now — sample
        # it so peak_utilization reflects steady state, not the run's tail.
        utilization = self._vectors[last].utilization()
        if utilization > self._peak_utilization:
            self._peak_utilization = utilization
        self._idx = (self._idx + 1) % self._num_vectors
        self._vectors[last].clear()
        self._rotations += 1
        return self._idx

    # -- marking and lookup --------------------------------------------------------

    def mark(self, indices: Iterable[int]) -> None:
        """Set the given bit indices in **all** k vectors (outgoing packets)."""
        indices = tuple(indices)
        for vector in self._vectors:
            vector.set_many(indices)

    def test_current(self, indices: Iterable[int]) -> bool:
        """True iff every index is set in the current vector (incoming lookup)."""
        return self._vectors[self._idx].test_all(indices)

    # -- vectorized twins ------------------------------------------------------------

    def mark_vec(self, index_matrix: np.ndarray) -> None:
        """Vectorized mark: ``index_matrix`` is the (m, N) output of
        :meth:`repro.core.hashing.HashFamily.indices_vec`."""
        byte_idx, masks = byte_masks(index_matrix.reshape(-1))
        for vector in self._vectors:
            vector.set_masks(byte_idx, masks)

    def test_current_vec(self, index_matrix: np.ndarray) -> np.ndarray:
        """Vectorized lookup: boolean array of length N, True = all m bits set."""
        current = self._vectors[self._idx]
        hits = current.test_many_vec(index_matrix.reshape(-1))
        return hits.reshape(index_matrix.shape).all(axis=0)

    # -- introspection ------------------------------------------------------------------

    def utilization(self) -> float:
        """Utilization U of the *current* vector (Equation 1's U)."""
        return self._vectors[self._idx].utilization()

    @property
    def peak_utilization(self) -> float:
        """Highest pre-rotation utilization seen so far (steady-state U)."""
        return max(self._peak_utilization, self.utilization())

    def utilizations(self) -> List[float]:
        """Utilization of every vector, in index order."""
        return [vector.utilization() for vector in self._vectors]

    def is_empty(self) -> bool:
        return not any(vector.any() for vector in self._vectors)

    def clear_all(self) -> None:
        """Reset the whole bitmap (not part of the paper's algorithms)."""
        for vector in self._vectors:
            vector.clear()
        self._idx = 0
        self._peak_utilization = 0.0

    def __repr__(self) -> str:
        return (
            f"Bitmap(k={self._num_vectors}, n={self._order}, idx={self._idx}, "
            f"U={self.utilization():.4f}, mem={self.memory_bytes}B)"
        )
