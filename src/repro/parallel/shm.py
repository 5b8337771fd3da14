"""Shared-memory slabs: zero-copy array traffic between driver and workers.

One :class:`ShmSlab` is created by the driver per executor and attached
(by name) from every worker process.  The driver owns the allocator — a
64-byte-aligned first-fit free list with coalescing on free — and hands
out :class:`ArrayHandle` descriptors; a handle is a plain
``(offset, shape, dtype)`` triple, so it pickles into a task message in a
few dozen bytes while the array payload never touches a queue.  Workers
only ever *view* handles (``attach`` + ``view``); all allocation policy
stays in one process, which keeps the allocator state out of shared
memory and makes worker death harmless to the slab.

Ownership protocol (see also ``README.md`` in this package):

- the driver allocates a segment, writes inputs (or leaves it for the
  worker to fill), and frees it after consuming the result;
- a worker may write only into segments named by the task it is running,
  between that task's receipt and its result message;
- the creating process ``unlink()``s the slab at executor shutdown.

:class:`LocalSlab` is the in-process stand-in backing the serial and
thread executors: same allocator, same handle type, one private
``np.uint8`` arena instead of a shared segment — so task code is
identical across all three backends.

When a slab cannot fit an array, :meth:`place` raises :class:`SlabFull`;
executors catch it and fall back to sending the array inline through the
task queue (slower, never wrong).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["ArrayHandle", "LocalSlab", "ShmSlab", "SlabFull"]

_ALIGN = 64  # cache-line granularity, matching the plan arena


class SlabFull(Exception):
    """No free extent large enough; caller should fall back to inline."""


@dataclass(frozen=True)
class ArrayHandle:
    """Picklable descriptor of an array living inside a slab."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


class _Allocator:
    """First-fit free list over ``[0, nbytes)`` with coalescing frees."""

    def __init__(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("slab size must be positive")
        self.nbytes = int(nbytes)
        self._free: List[Tuple[int, int]] = [(0, self.nbytes)]  # (offset, size)
        self._live: Dict[int, int] = {}  # offset -> rounded size

    def _alloc(self, nbytes: int) -> int:
        size = max((int(nbytes) + _ALIGN - 1) & ~(_ALIGN - 1), _ALIGN)
        for i, (off, extent) in enumerate(self._free):
            if extent >= size:
                if extent == size:
                    del self._free[i]
                else:
                    self._free[i] = (off + size, extent - size)
                self._live[off] = size
                return off
        raise SlabFull(f"no free extent of {size} bytes (slab {self.nbytes})")

    def _release(self, offset: int) -> None:
        size = self._live.pop(offset, None)
        if size is None:
            raise ValueError(f"offset {offset} is not a live allocation")
        self._free.append((offset, size))
        # Coalesce: sort by offset and merge adjacent extents.
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for off, extent in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + extent)
            else:
                merged.append((off, extent))
        self._free = merged


class _SlabBase(_Allocator):
    """Allocator + array interface over a raw byte buffer."""

    _buf: np.ndarray  # (nbytes,) uint8 view of the backing storage

    def alloc(self, shape, dtype) -> ArrayHandle:
        """Reserve space for an array; contents are uninitialized."""
        handle = ArrayHandle(0, tuple(int(s) for s in shape), np.dtype(dtype).str)
        return ArrayHandle(self._alloc(handle.nbytes), handle.shape, handle.dtype)

    def place(self, array: np.ndarray) -> ArrayHandle:
        """Copy ``array`` into the slab; returns its handle."""
        array = np.ascontiguousarray(array)
        handle = self.alloc(array.shape, array.dtype)
        self.view(handle)[...] = array
        return handle

    def view(self, handle: ArrayHandle) -> np.ndarray:
        """The live array a handle names (zero-copy view into the slab)."""
        end = handle.offset + handle.nbytes
        if end > self.nbytes:
            raise ValueError(f"handle {handle} exceeds slab of {self.nbytes} bytes")
        return (
            self._buf[handle.offset : end]
            .view(np.dtype(handle.dtype))
            .reshape(handle.shape)
        )

    def take(self, handle: ArrayHandle) -> np.ndarray:
        """Copy a handle's contents out and free the segment."""
        data = self.view(handle).copy()
        self.free(handle)
        return data

    def free(self, handle: ArrayHandle) -> None:
        self._release(handle.offset)


class LocalSlab(_SlabBase):
    """In-process slab for the serial and thread executors."""

    def __init__(self, nbytes: int) -> None:
        super().__init__(nbytes)
        self._buf = np.empty(self.nbytes, dtype=np.uint8)

    def close(self) -> None:  # API parity with ShmSlab
        pass

    def unlink(self) -> None:
        pass


class ShmSlab(_SlabBase):
    """Slab over one ``multiprocessing.shared_memory`` segment.

    The creating process (``ShmSlab(nbytes)``) owns the allocator and the
    segment's lifetime; workers call :meth:`attach` with the segment
    ``name`` and may only :meth:`view` handles given to them by tasks.
    """

    def __init__(self, nbytes: int, name: Optional[str] = None, _attach: bool = False) -> None:
        from multiprocessing import shared_memory

        super().__init__(nbytes)
        if _attach:
            try:
                # track=False (3.13+) keeps the attaching process's
                # resource tracker away from a segment it doesn't own —
                # otherwise a dying worker can tear down the driver's
                # slab.  On 3.11/3.12 fork-started workers share the
                # driver's tracker process, which is equally safe.
                self._shm = shared_memory.SharedMemory(name=name, track=False)
            except TypeError:
                self._shm = shared_memory.SharedMemory(name=name)
            self.owner = False
        else:
            self._shm = shared_memory.SharedMemory(create=True, size=self.nbytes, name=name)
            self.owner = True
        self._buf = np.frombuffer(self._shm.buf, dtype=np.uint8, count=self.nbytes)

    @classmethod
    def attach(cls, name: str, nbytes: int) -> "ShmSlab":
        """Worker-side view of an existing slab (no allocation rights)."""
        return cls(nbytes, name=name, _attach=True)

    @property
    def name(self) -> str:
        return self._shm.name

    def alloc(self, shape, dtype) -> ArrayHandle:
        if not self.owner:
            raise RuntimeError("only the creating process may allocate from a slab")
        return super().alloc(shape, dtype)

    def free(self, handle: ArrayHandle) -> None:
        if not self.owner:
            raise RuntimeError("only the creating process may free slab segments")
        super().free(handle)

    def close(self) -> None:
        # Drop the buffer view first: SharedMemory.close() refuses while
        # exported views are alive.
        self._buf = np.empty(0, dtype=np.uint8)
        try:
            self._shm.close()
        except BufferError:
            # A consumer still holds a view; the mapping is reclaimed at
            # process exit instead.
            pass

    def unlink(self) -> None:
        if self.owner:
            self._shm.unlink()
