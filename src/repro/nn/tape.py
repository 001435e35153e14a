"""Captured-tape execution engine (graph capture and replay).

The GP objective is a *static* graph — WA/LSE wirelength plus electric
density, combined by two scalar arithmetic nodes — evaluated 1000+
times per placement with identical structure.  The eager engine pays
for that structure on every iteration: a fresh :class:`Function` node
per op, a :class:`Tensor` wrapper per output, a topological sort and a
grad-accumulation dict per ``backward()``.  This module removes all of
it, in the spirit of CUDA Graphs / ``torch.compile``: the first closure
evaluation runs eagerly while a :class:`TapeRecorder` records the op
sequence into a flat :class:`CapturedTape`; every later iteration calls
:meth:`CapturedTape.replay`, a straight-line loop over precompiled
steps.

Replay contract (what makes it bit-exact against eager):

- leaf tensors (the position parameter, wrapped constants, the
  objective's density-weight scalar) are re-read through ``.data`` on
  every replay, so optimizer rebinds and per-iteration weight updates
  flow into the tape without recapture;
- mutable op state (``gamma``) travels through the recorded kwargs'
  module reference and is read live inside the kernels, exactly as in
  eager mode;
- forward steps run in recorded order and backward steps in reverse —
  for the objective's expression tree this reproduces the eager
  topological order exactly, including the gradient accumulation order
  into the position leaf;
- every step is the recorded node's own ``forward`` / ``backward``,
  reused verbatim: eager execution and replay run the same kernels.

Only ops whose class sets ``capture_safe = True`` may be taped; a graph
containing any other op (e.g. a user-supplied wirelength factory)
falls back to eager execution — :func:`capture` then returns ``None``
for the tape, never an exception.  Structural changes (a leaf changing
shape or dtype) raise :class:`TapeInvalidated` from ``replay`` so the
caller can recapture.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Optional

import numpy as np

from repro.nn import tensor as _tensor
from repro.nn.tensor import Tensor, _as_array, _unbroadcast


class CaptureError(RuntimeError):
    """Raised for misuse of the capture API itself."""


class TapeInvalidated(RuntimeError):
    """A replay precondition broke (leaf shape/dtype changed): recapture."""


class _Step:
    """One precompiled op invocation on the tape."""

    __slots__ = ("forward", "backward", "arg_specs", "out_slot",
                 "requires", "n_inputs", "actions")

    def __init__(self, forward, backward, arg_specs, out_slot,
                 requires, n_inputs, actions):
        self.forward = forward
        self.backward = backward
        self.arg_specs = arg_specs  # ((is_slot, slot_or_value), ...)
        self.out_slot = out_slot
        self.requires = requires
        self.n_inputs = n_inputs
        # per node input: None (no grad flow) or
        # (is_leaf, leaf_tensor_or_slot, dtype, shape)
        self.actions = actions


class CapturedTape:
    """A recorded objective evaluation, replayable without graph churn.

    Built by :func:`capture`; not constructed directly.  ``replay()``
    re-runs the forward kernels and the analytic backward kernels as a
    flat loop, accumulating gradients into the recorded leaf tensors
    (via their persistent grad buffers) and returning a persistent loss
    tensor whose ``data`` is refreshed in place.
    """

    def __init__(self, steps, leaves, root_slot, seed, num_slots, watched):
        self._steps = steps
        self._rev_steps = [s for s in reversed(steps) if s.requires]
        self._leaves = leaves  # ((slot, tensor, shape, dtype), ...)
        self._root_slot = root_slot
        self._seed = seed
        self._values: list = [None] * num_slots
        self._grads: list = [None] * num_slots
        self._watched = watched  # name -> slot
        self._loss = Tensor(seed)  # placeholder; data refreshed per replay
        self.replays = 0

    # ------------------------------------------------------------------
    def replay(self) -> Tensor:
        """One forward+backward evaluation over the precompiled steps."""
        values = self._values
        for slot, leaf, shape, dtype in self._leaves:
            data = leaf.data
            if data.shape != shape or data.dtype != dtype:
                raise TapeInvalidated(
                    f"leaf changed from {shape}/{dtype} to "
                    f"{data.shape}/{data.dtype}"
                )
            values[slot] = data
        for step in self._steps:
            args = tuple(
                values[spec] if is_slot else spec
                for is_slot, spec in step.arg_specs
            )
            values[step.out_slot] = step.forward(*args)

        grads = self._grads
        for i in range(len(grads)):
            grads[i] = None
        grads[self._root_slot] = self._seed
        for step in self._rev_steps:
            upstream = grads[step.out_slot]
            if upstream is None:
                continue
            input_grads = step.backward(upstream)
            if not isinstance(input_grads, tuple):
                input_grads = (input_grads,)
            if len(input_grads) != step.n_inputs:
                raise RuntimeError(
                    f"replay backward returned {len(input_grads)} gradients "
                    f"for {step.n_inputs} inputs"
                )
            for action, g in zip(step.actions, input_grads):
                if action is None or g is None:
                    continue
                is_leaf, target, dtype, shape = action
                g = _as_array(g, dtype)
                if g.shape != shape:
                    g = _unbroadcast(g, shape)
                if is_leaf:
                    target._accumulate(g)
                elif grads[target] is None:
                    grads[target] = g
                else:
                    grads[target] = grads[target] + g

        self.replays += 1
        loss = self._loss
        loss.data = values[self._root_slot]
        return loss

    def watched(self, name: str) -> float:
        """Value of a tensor registered via ``recorder.watch`` (last replay)."""
        return float(self._values[self._watched[name]])


class TapeRecorder:
    """Collects op applications during one eager closure evaluation."""

    def __init__(self):
        self.entries: list = []  # (node, arg_specs, kwargs, out_slot, req)
        self._slot_of: dict[int, int] = {}
        self._tensors: list[Tensor] = []
        self._outputs: set[int] = set()  # slots written by a step
        self._watched: dict[str, int] = {}
        self._root: Optional[Tensor] = None
        self.failure: Optional[str] = None
        #: the capture is confined to the thread that started it: the
        #: placement service runs several GP loops in one process, and
        #: ops from a *concurrent* eager/replay thread must not leak
        #: into this thread's tape
        self.thread_id = threading.get_ident()

    # ------------------------------------------------------------------
    def _slot(self, t: Tensor) -> int:
        slot = self._slot_of.get(id(t))
        if slot is None:
            slot = len(self._tensors)
            self._slot_of[id(t)] = slot
            self._tensors.append(t)
        return slot

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason

    def record_apply(self, node, inputs, kwargs, output, requires) -> None:
        """Called by ``Function.apply`` for every op during capture."""
        if threading.get_ident() != self.thread_id:
            return  # another thread's op; not part of this capture
        if not getattr(type(node), "capture_safe", False):
            self.fail(f"{type(node).__name__} is not capture-safe")
        specs = tuple(
            (True, self._slot(v)) if isinstance(v, Tensor) else (False, v)
            for v in inputs
        )
        out_slot = self._slot(output)
        self._outputs.add(out_slot)
        self.entries.append((node, specs, kwargs, out_slot, requires))

    def record_root(self, t: Tensor, grad) -> None:
        """Called by ``Tensor.backward`` during capture."""
        if threading.get_ident() != self.thread_id:
            return  # another thread's backward; not this capture's root
        if self._root is not None:
            self.fail("multiple backward() calls during capture")
            return
        if grad is not None:
            self.fail("backward() with an explicit gradient during capture")
            return
        self._root = t

    def watch(self, name: str, t: Tensor) -> None:
        """Expose a captured tensor's value by name on the tape."""
        self._watched[name] = self._slot(t)

    # ------------------------------------------------------------------
    def finalize(self) -> Optional[CapturedTape]:
        """Precompile the recording into a tape; None when not tapeable."""
        root = self._root
        if root is None:
            self.fail("no backward() call was recorded")
        elif self._slot_of.get(id(root)) not in self._outputs:
            self.fail("backward() root is not a recorded op output")
        elif root.data.size != 1:
            self.fail("backward() root is not scalar")
        if self.failure is not None:
            return None

        steps = []
        for node, specs, kwargs, out_slot, requires in self.entries:
            forward = (functools.partial(node.forward, **kwargs)
                       if kwargs else node.forward)
            actions = None
            if requires:
                actions = []
                for parent in node.inputs:
                    if not parent.requires_grad:
                        actions.append(None)
                        continue
                    dtype = parent.data.dtype
                    shape = parent.data.shape
                    if parent._creator is None:
                        actions.append((True, parent, dtype, shape))
                    else:
                        pslot = self._slot_of.get(id(parent))
                        if pslot is None:
                            self.fail("graph input created outside capture")
                            return None
                        actions.append((False, pslot, dtype, shape))
                actions = tuple(actions)
            steps.append(_Step(
                forward, node.backward, specs, out_slot, requires,
                len(node.inputs), actions,
            ))

        leaves = tuple(
            (slot, t, t.data.shape, t.data.dtype)
            for slot, t in enumerate(self._tensors)
            if slot not in self._outputs
        )
        seed = np.ones_like(root.data)
        return CapturedTape(
            steps, leaves, self._slot_of[id(root)], seed,
            len(self._tensors), dict(self._watched),
        )


#: the recorder consulted by ``Function.apply`` (None outside capture)
_RECORDER: TapeRecorder | None = None
#: serializes captures across threads: the recorder registration is a
#: process-wide single slot (one cheap global read on the eager hot
#: path), so two service threads reaching their first closure at the
#: same time take turns; a capture is one closure evaluation, so the
#: critical section is short.  Recording itself is additionally
#: thread-confined (see :class:`TapeRecorder`), so ops another thread
#: runs *while* a capture is in progress are never mis-taped.
_CAPTURE_LOCK = threading.Lock()


def active_recorder() -> TapeRecorder | None:
    """The recorder of an in-progress capture, or None."""
    return _RECORDER


def capture(fn: Callable[[], Any]) -> tuple[Any, Optional[CapturedTape]]:
    """Run ``fn`` eagerly while recording its autograd activity.

    ``fn`` must evaluate an objective and call ``backward()`` on it
    (the standard closure shape).  Returns ``(result, tape)`` where
    ``tape`` is ``None`` when the recorded graph cannot be replayed
    (an op is not capture-safe, no backward ran, ...) — the eager
    result is valid either way, so capture never changes semantics.

    Thread-safe: concurrent captures from different threads serialize
    on a lock; a nested capture on the *same* thread is a programming
    error and raises :class:`CaptureError` (the lock is not reentrant,
    so the explicit check must come first).
    """
    global _RECORDER
    if (_RECORDER is not None
            and _RECORDER.thread_id == threading.get_ident()):
        raise CaptureError("capture() calls cannot nest")
    with _CAPTURE_LOCK:
        recorder = TapeRecorder()
        _RECORDER = recorder
        _tensor._capture_root_hook = recorder.record_root
        try:
            result = fn()
        finally:
            _RECORDER = None
            _tensor._capture_root_hook = None
    return result, recorder.finalize()
