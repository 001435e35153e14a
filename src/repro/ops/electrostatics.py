"""Spectral solution of Poisson's equation (Section II-C, eq. 4-5, 9).

Cells are charges, the density penalty is potential energy, and the
density gradient is the electric field.  Given the charge-density map
``rho`` the solver returns the potential ``psi`` and the field
``(xi_x, xi_y)`` via DCT/IDCT/IDXST routines (eq. 9), with Neumann
boundary conditions and zero total charge enforced by dropping the DC
coefficient (eq. 4b/4c).

The production solve (``impl="2d"``) runs on ``scipy.fft``'s DCT-II,
DCT-III and DST-III in the density map's own dtype, so a float32 run
solves in float32: its maps stay within 5e-6 of a float64 solve,
relative to each map's maximum magnitude.  The paper's own transforms
(:mod:`repro.ops.dct`, Algorithms 3-4) remain the ``"n"``, ``"2n"``
and ``"naive"`` ablations of Fig. 11 and the tests' oracle
(:meth:`PoissonSolver._solve_sequential`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft

from repro.geometry.bins import BinGrid
from repro.ops import dct as _dct


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
    "2n", or "naive"), reproducing the Fig. 11 comparison.  Every
    :meth:`solve` returns freshly allocated maps.
    """

    def __init__(self, grid: BinGrid, impl: str = "2d"):
        self.grid = grid
        self.impl = impl
        nx, ny = grid.nx, grid.ny
        # w_u per layout unit: basis cos(pi*u*(i+0.5)/nx) has spatial
        # frequency pi*u/(nx*bin_w) = pi*u/region_width
        wu = np.pi * np.arange(nx) / (nx * grid.bin_w)
        wv = np.pi * np.arange(ny) / (ny * grid.bin_h)
        self._wu = wu[:, None]
        self._wv = wv[None, :]
        denom = self._wu ** 2 + self._wv ** 2
        denom[0, 0] = 1.0  # avoid 0/0; the DC coefficient is zeroed
        # 2/M per axis folds the DCT-expansion coefficients (alpha_u
        # alpha_v / M^2) together with the half-DC convention of the
        # inverse transform; see ops/dct.py
        self._kernel = (2.0 / nx) * (2.0 / ny) / denom
        self._kernel[0, 0] = 0.0  # zero total charge drops DC (eq. 4c)
        self._by_dtype: dict = {}

    def _constants(self, dtype):
        """``(kernel, w_u, w_v)`` for the library solve, cast to ``dtype``."""
        consts = self._by_dtype.get(dtype)
        if consts is None:
            # scipy's unnormalized DCT-II, DCT-III and DST-III are each
            # twice eq. (7)/(8) per axis: a forward and an inverse 2-D
            # transform carry 16x, which the kernel takes back out
            consts = self._by_dtype[dtype] = (
                (self._kernel / 16.0).astype(dtype),
                self._wu.astype(dtype),
                self._wv.astype(dtype),
            )
        return consts

    def solve(self, rho: np.ndarray) -> FieldSolution:
        """Solve ``laplacian(psi) = -rho`` and return psi and xi = -grad psi."""
        if rho.shape != self.grid.shape:
            raise ValueError(
                f"density map shape {rho.shape} != grid {self.grid.shape}"
            )
        if self.impl != "2d":
            return self._solve_sequential(rho)
        dtype = np.result_type(rho.dtype, np.float32)
        kernel, wu, wv = self._constants(dtype)
        coeff = fft.dctn(np.asarray(rho, dtype=dtype), type=2)
        coeff *= kernel
        psi = fft.dctn(coeff, type=3)
        # IDXST of eq. (8) is DST-III on the coefficients shifted down
        # one index (x_1 .. x_{N-1}, then 0); the shift is a slice
        bx = np.empty_like(coeff)
        np.multiply(coeff[1:], wu[1:], out=bx[:-1])
        bx[-1] = 0.0
        xi_x = fft.dct(fft.dst(bx, type=3, axis=0, overwrite_x=True),
                       type=3, axis=1, overwrite_x=True)
        by = np.empty_like(coeff)
        np.multiply(coeff[:, 1:], wv[:, 1:], out=by[:, :-1])
        by[:, -1] = 0.0
        xi_y = fft.dct(fft.dst(by, type=3, axis=1, overwrite_x=True),
                       type=3, axis=0, overwrite_x=True)
        return FieldSolution(potential=psi, field_x=xi_x, field_y=xi_y)

    def _solve_sequential(self, rho: np.ndarray) -> FieldSolution:
        """The paper's transforms one after another, in float64: the
        Fig. 11 ablation impls and the oracle for :meth:`solve`."""
        coeff = _dct.dct2d(np.asarray(rho, dtype=np.float64), impl=self.impl)
        coeff *= self._kernel
        psi = _dct.idct2d(coeff, impl=self.impl)
        xi_x = _dct.idxst_idct(coeff * self._wu, impl=self.impl)
        xi_y = _dct.idct_idxst(coeff * self._wv, impl=self.impl)
        return FieldSolution(potential=psi, field_x=xi_x, field_y=xi_y)
