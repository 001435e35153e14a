"""Custom-operator extension API.

This mirrors ``torch.autograd.Function``: an operator defines a
``forward`` working on raw numpy arrays and a ``backward`` mapping the
upstream gradient to per-input gradients.  The placement kernels of the
paper (wirelength, density) are implemented as subclasses, exactly as
Section II-B prescribes: "each custom OP requires well defined forward
and backward functions for cost and gradient computation."
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.nn import tape as _tape
from repro.nn.tensor import Tensor, is_grad_enabled


class Function:
    """Base class for differentiable operators.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Call the
    operator through :meth:`apply`; a fresh instance per call acts as the
    autograd-graph node and as the context object (``save_for_backward``).
    """

    #: opt-in to :mod:`repro.nn.tape` capture: replaying this node's
    #: recorded ``forward``/``backward`` (same instance, refreshed saved
    #: context, live kwargs) must be semantically identical to a fresh
    #: ``apply``.  Ops holding per-call state outside the node, or whose
    #: forward has side effects that must not repeat, stay False.
    capture_safe = False

    def __init__(self):
        self.inputs: tuple[Tensor, ...] = ()
        self.saved: tuple[Any, ...] = ()

    # -- context API ----------------------------------------------------
    def save_for_backward(self, *values: Any) -> None:
        self.saved = values

    @property
    def saved_values(self) -> tuple[Any, ...]:
        return self.saved

    # -- operator contract ----------------------------------------------
    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray):
        raise NotImplementedError

    # -- invocation -------------------------------------------------------
    @classmethod
    def apply(cls, *inputs, **kwargs) -> Tensor:
        """Run the operator and record it on the tape.

        ``inputs`` may mix :class:`Tensor` and plain values; only tensors
        participate in autograd.  ``kwargs`` are forwarded to ``forward``.
        """
        node = cls()
        tensors = tuple(i for i in inputs if isinstance(i, Tensor))
        arrays = tuple(
            i.data if isinstance(i, Tensor) else i for i in inputs
        )
        output_data = node.forward(*arrays, **kwargs)
        requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
        output = Tensor(output_data, requires_grad=requires)
        if requires:
            node.inputs = tensors
            output._creator = node
        recorder = _tape._RECORDER
        if recorder is not None:
            recorder.record_apply(node, inputs, kwargs, output, requires)
        return output
