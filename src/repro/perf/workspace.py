"""Persistent kernel workspaces (the zero-allocation hot-loop contract).

The GP hot loop evaluates the same operators on same-shaped data ~1000
times; on CPU, re-allocating every temporary is pure overhead (the
analog of DREAMPlace's Algorithm 2, which merges kernels precisely so
intermediates never hit global memory).  A :class:`Workspace` is a small
named buffer pool: an op acquires each scratch array by name once per
call and numpy writes into it via ``out=`` arguments and in-place
ufuncs, so after a warmup call the steady state performs no new large
allocations.

Contract for kernels running on a workspace:

- buffers are keyed by *name*; contents are undefined at ``acquire``
  time (use :meth:`Workspace.zeros` when a cleared buffer is needed),
- a buffer is only valid until the same name is acquired again, so
  kernels must consume a buffer before re-acquiring its name,
- shape or dtype changes trigger a (rare) reallocation, making pooling
  transparent when problem sizes change between calls.

:class:`NullWorkspace` has the same API but allocates fresh arrays on
every acquire: the degenerate pool.  Kernels have one dataflow, so a
result that differs between the two pools is a buffer-aliasing bug
(``tests/test_perf.py`` holds them bit-equal), and a caller that must
keep results across calls gets fresh arrays.
"""

from __future__ import annotations

import numpy as np


class Workspace:
    """Dtype/shape-keyed pool of named scratch arrays."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._flat: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def acquire(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """A persistent buffer of exactly ``shape``; contents undefined."""
        if np.isscalar(shape):
            shape = (int(shape),)
        else:
            shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[name] = buf
        return buf

    def zeros(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`acquire` but cleared to zero."""
        buf = self.acquire(name, shape, dtype)
        buf.fill(0)
        return buf

    def acquire_flat(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        """A 1-D view of length ``size`` over a capacity-grown buffer.

        For data-dependent sizes (e.g. the number of cell/bin overlap
        pairs, which changes as cells move): capacity grows
        geometrically, so steady state reallocates never.
        """
        size = int(size)
        dtype = np.dtype(dtype)
        buf = self._flat.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            cap = size if buf is None else max(size, 2 * buf.size)
            buf = np.empty(max(cap, 8), dtype=dtype)
            self._flat[name] = buf
        return buf[:size]

    def arange(self, size: int) -> np.ndarray:
        """A cached ``arange(size)`` view (int64), grown like acquire_flat."""
        size = int(size)
        buf = self._flat.get("__arange__")
        if buf is None or buf.size < size:
            cap = max(size if buf is None else max(size, 2 * buf.size), 8)
            buf = np.arange(cap, dtype=np.int64)
            self._flat["__arange__"] = buf
        return buf[:size]

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(b.nbytes for b in self._buffers.values()) + \
            sum(b.nbytes for b in self._flat.values())

    def __len__(self) -> int:
        return len(self._buffers) + len(self._flat)

    def clear(self) -> None:
        self._buffers.clear()
        self._flat.clear()


class NullWorkspace(Workspace):
    """Same API, but every acquire allocates fresh memory.

    The default of callers whose results must outlive the next call,
    and the pool the tests use to flush out buffer-aliasing bugs.
    """

    def acquire(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        if np.isscalar(shape):
            shape = (int(shape),)
        return np.empty(tuple(int(s) for s in shape), dtype=np.dtype(dtype))

    def zeros(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        if np.isscalar(shape):
            shape = (int(shape),)
        return np.zeros(tuple(int(s) for s in shape), dtype=np.dtype(dtype))

    def acquire_flat(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        return np.empty(int(size), dtype=np.dtype(dtype))

    def arange(self, size: int) -> np.ndarray:
        return np.arange(int(size), dtype=np.int64)
