"""Fixed-size bit vectors — the rows of the {k x n}-bitmap.

A :class:`BitVector` of order ``n`` holds ``2**n`` bits in a ``bytearray``.
The bytearray backing keeps single-bit operations fast in pure Python, while
:meth:`as_numpy` exposes a zero-copy writable ``uint8`` view for the
vectorized filter path.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

# Popcount lookup for one byte, used by count() without allocating
# an unpacked bit array.
_POPCOUNT8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)
_POPCOUNT8 = _POPCOUNT8.astype(np.uint32)

_BIT_MASKS = tuple(1 << i for i in range(8))


def byte_masks(indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split bit indices into byte offsets and one-bit byte masks, the form
    :meth:`BitVector.set_masks` and :meth:`BitVector.test_masks` take."""
    return ((indices >> 3).astype(np.intp),
            np.left_shift(np.uint8(1), (indices & 7).astype(np.uint8)))


class BitVector:
    """A vector of ``2**order`` bits, all initially zero."""

    __slots__ = ("_order", "_num_bits", "_bytes")

    def __init__(self, order: int):
        if not 3 <= order <= 32:
            raise ValueError(f"bit vector order must be in [3, 32], got {order}")
        self._order = order
        self._num_bits = 1 << order
        self._bytes = bytearray(self._num_bits >> 3)

    # -- basic properties ---------------------------------------------------

    @property
    def order(self) -> int:
        """The ``n`` in ``2**n`` bits."""
        return self._order

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def num_bytes(self) -> int:
        return len(self._bytes)

    def __len__(self) -> int:
        return self._num_bits

    # -- single-bit operations ----------------------------------------------

    def set(self, index: int) -> None:
        """Set the bit at ``index`` to one."""
        self._bytes[index >> 3] |= _BIT_MASKS[index & 7]

    def test(self, index: int) -> bool:
        """Return whether the bit at ``index`` is one."""
        return bool(self._bytes[index >> 3] & _BIT_MASKS[index & 7])

    def __getitem__(self, index: int) -> bool:
        if not 0 <= index < self._num_bits:
            raise IndexError(f"bit index {index} out of range")
        return self.test(index)

    def set_many(self, indices: Iterable[int]) -> None:
        buf = self._bytes
        for index in indices:
            buf[index >> 3] |= _BIT_MASKS[index & 7]

    def test_all(self, indices: Iterable[int]) -> bool:
        """Return True iff every listed bit is set (Bloom membership test)."""
        buf = self._bytes
        return all(buf[index >> 3] & _BIT_MASKS[index & 7] for index in indices)

    # -- bulk operations ------------------------------------------------------

    def clear(self) -> None:
        """Reset every bit to zero (the ``b.rotate`` clean-up step).

        This is the O(2**n) operation Table 1 characterizes as "reset values
        in a fixed-size and continuous memory" — a single memset here.
        """
        view = memoryview(self._bytes)
        view[:] = bytes(len(self._bytes))

    def count(self) -> int:
        """Number of set bits (the ``b`` of Equation 1)."""
        arr = np.frombuffer(self._bytes, dtype=np.uint8)
        if hasattr(np, "bitwise_count"):  # NumPy >= 2.0: native popcount
            return int(np.bitwise_count(arr).sum(dtype=np.int64))
        return int(_POPCOUNT8[arr].sum())

    def utilization(self) -> float:
        """Fraction of bits set: ``U = b / 2**n`` (Equation 1)."""
        return self.count() / self._num_bits

    def any(self) -> bool:
        arr = np.frombuffer(self._bytes, dtype=np.uint8)
        return bool(arr.any())

    # -- vectorized access ----------------------------------------------------

    def as_numpy(self) -> np.ndarray:
        """Zero-copy writable ``uint8`` view of the backing bytes."""
        return np.frombuffer(self._bytes, dtype=np.uint8)

    def set_many_vec(self, indices: np.ndarray) -> None:
        """Vectorized :meth:`set_many` for a ``uint64``/``int64`` index array.

        Uses ``np.bitwise_or.at`` so duplicate indices are handled correctly.
        """
        self.set_masks(*byte_masks(indices))

    def test_many_vec(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized membership: boolean array, one entry per index."""
        return self.test_masks(*byte_masks(indices))

    def set_masks(self, byte_idx: np.ndarray, masks: np.ndarray) -> None:
        """:meth:`set_many_vec` on indices split by :func:`byte_masks`."""
        np.bitwise_or.at(self.as_numpy(), byte_idx, masks)

    def test_masks(self, byte_idx: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """:meth:`test_many_vec` on indices split by :func:`byte_masks`
        (any shape; the result has the same one)."""
        return (self.as_numpy()[byte_idx] & masks) != 0

    # -- misc -----------------------------------------------------------------

    def copy(self) -> "BitVector":
        clone = BitVector(self._order)
        clone._bytes[:] = self._bytes
        return clone

    def set_bit_indices(self) -> List[int]:
        """All indices whose bit is set (for tests/debugging; O(2**n))."""
        arr = np.frombuffer(self._bytes, dtype=np.uint8)
        bits = np.unpackbits(arr, bitorder="little")
        return np.nonzero(bits)[0].tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._order == other._order and self._bytes == other._bytes

    def __repr__(self) -> str:
        return f"BitVector(order={self._order}, set={self.count()}/{self._num_bits})"
