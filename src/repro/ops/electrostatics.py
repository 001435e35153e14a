"""Spectral solution of Poisson's equation (Section II-C, eq. 4-5, 9).

Cells are charges, the density penalty is potential energy, and the
density gradient is the electric field.  Given the charge-density map
``rho`` the solver returns the potential ``psi`` and the field
``(xi_x, xi_y)`` via DCT/IDCT/IDXST routines (eq. 9), with Neumann
boundary conditions and zero total charge enforced by dropping the DC
coefficient (eq. 4b/4c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.bins import BinGrid
from repro.ops import dct as _dct
from repro.perf.workspace import NullWorkspace, Workspace


@dataclass
class FieldSolution:
    """Potential and field maps on the bin grid."""

    potential: np.ndarray  # psi, (nx, ny)
    field_x: np.ndarray  # xi_x = -dpsi/dx, (nx, ny)
    field_y: np.ndarray  # xi_y = -dpsi/dy, (nx, ny)


class PoissonSolver:
    """Precomputed-frequency spectral Poisson solver on a bin grid.

    Frequencies are expressed per layout unit, so the returned field is
    the true spatial gradient of the potential regardless of bin aspect
    ratio.  ``impl`` selects the DCT implementation family ("2d", "n",
    "2n", or "naive"), reproducing the Fig. 11 comparison.

    The returned maps live in ``workspace`` buffers.  The default
    :class:`NullWorkspace` hands back freshly allocated maps on every
    call; a caller passing a pooling :class:`Workspace` (the density
    op shares its own) gets buffers valid until the next :meth:`solve`.
    """

    def __init__(self, grid: BinGrid, impl: str = "2d",
                 workspace: Workspace | None = None):
        self.grid = grid
        self.impl = impl
        self.ws = workspace if workspace is not None else NullWorkspace()
        nx, ny = grid.nx, grid.ny
        # w_u per layout unit: basis cos(pi*u*(i+0.5)/nx) has spatial
        # frequency pi*u/(nx*bin_w) = pi*u/region_width
        wu = np.pi * np.arange(nx) / (nx * grid.bin_w)
        wv = np.pi * np.arange(ny) / (ny * grid.bin_h)
        self._wu = wu[:, None]
        self._wv = wv[None, :]
        denom = self._wu ** 2 + self._wv ** 2
        denom[0, 0] = 1.0  # avoid 0/0; the DC coefficient is zeroed
        self._inv_denom = 1.0 / denom
        # 2/M per axis folds the DCT-expansion coefficients (alpha_u
        # alpha_v / M^2) together with the half-DC convention of the
        # inverse transform; see ops/dct.py
        self._scale = (2.0 / nx) * (2.0 / ny)
        # precombined spectral kernel: one in-place multiply per solve
        self._kernel = self._scale * self._inv_denom

    def solve(self, rho: np.ndarray) -> FieldSolution:
        """Solve ``laplacian(psi) = -rho`` and return psi and xi = -grad psi."""
        if rho.shape != self.grid.shape:
            raise ValueError(
                f"density map shape {rho.shape} != grid {self.grid.shape}"
            )
        if self.impl != "2d":
            return self._solve_sequential(rho)
        if rho.dtype != np.float64:
            cast = self.ws.acquire("psn.rho64", rho.shape, np.float64)
            np.copyto(cast, rho)
            rho = cast
        coeff = _dct.dct2d_fft2(rho, self.ws)
        coeff *= self._kernel
        coeff[0, 0] = 0.0
        # the three inverse transforms run as one batched irfft2
        # (bit-identical to the sequential idct2d / idxst_idct /
        # idct_idxst, see repro.ops.dct.idct2d_sine_batch), so both sine
        # inputs must be alive at once
        bx = self.ws.acquire("psn.bx", coeff.shape, coeff.dtype)
        by = self.ws.acquire("psn.by", coeff.shape, coeff.dtype)
        np.multiply(coeff, self._wu, out=bx)
        np.multiply(coeff, self._wv, out=by)
        psi, xi_x, xi_y = _dct.idct2d_sine_batch(coeff, bx, by, self.ws)
        return FieldSolution(potential=psi, field_x=xi_x, field_y=xi_y)

    def _solve_sequential(self, rho: np.ndarray) -> FieldSolution:
        """One transform after another, for the Fig. 11 ablation impls."""
        coeff = _dct.dct2d(np.asarray(rho, dtype=np.float64), impl=self.impl)
        coeff *= self._kernel
        coeff[0, 0] = 0.0
        psi = _dct.idct2d(coeff, impl=self.impl)
        buf = self.ws.acquire("psn.spectral", coeff.shape, coeff.dtype)
        np.multiply(coeff, self._wu, out=buf)
        xi_x = _dct.idxst_idct(buf, impl=self.impl)
        np.multiply(coeff, self._wv, out=buf)
        xi_y = _dct.idct_idxst(buf, impl=self.impl)
        return FieldSolution(potential=psi, field_x=xi_x, field_y=xi_y)
