"""Discrete cosine/sine transforms for the electrostatic system.

Implements the transforms of Section III-B3 with the exact definitions
of eqs. (7) and (8):

- ``dct(x)_k   = sum_n x_n cos(pi/N (n+1/2) k)``          (DCT-II family)
- ``idct(x)_k  = x_0/2 + sum_{n>=1} x_n cos(pi/N n (k+1/2))`` (DCT-III/2)
- ``idxst(x)_k = sum_n x_n sin(pi/N n (k+1/2))``

Three implementation families mirror the paper's Fig. 11 study:

- ``*_2n``  : via a 2N-point complex FFT (the TensorFlow-style baseline),
- ``*_n``   : via an N-point real FFT (Makhoul; Algorithm 3),
- ``*_2d``  : 2-D transforms via a single 2-D FFT (Algorithm 4),

plus O(N^2) ``*_naive`` references used by the tests.  1-D transforms
operate along the last axis.  The composite 2-D transforms of eq. (9)
are :func:`dct2d`, :func:`idct2d`, :func:`idxst_idct` (sine along
axis 0) and :func:`idct_idxst` (sine along axis 1).

Performance notes: the paper wrote these only because its framework had
no DCT.  The production Poisson solve runs on ``scipy.fft``'s DCT-II,
DCT-III and DST-III in the map's own dtype (see
:mod:`repro.ops.electrostatics`); this module is the Fig. 11 ablation
(the solver's "2n"/"n"/"naive" impls) and the solve's test oracle.
Twiddles, index maps and sign vectors are cached per size, and
every FFT runs on real input with the missing half-spectrum rebuilt
from Hermitian symmetry.
"""

from __future__ import annotations

import numpy as np

# (kind, sizes) -> precomputed twiddles / index maps / sign vectors
_PLAN_CACHE: dict = {}


def _plan(key, build):
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _PLAN_CACHE[key] = build()
    return plan

__all__ = [
    "dct_naive", "idct_naive", "idxst_naive",
    "dct_2n", "idct_2n",
    "dct_n", "idct_n",
    "idxst_n",
    "dct2d_fft2", "idct2d_fft2",
    "dct2d", "idct2d", "idxst_idct", "idct_idxst",
]


# ---------------------------------------------------------------------------
# naive O(N^2) references (tests + odd lengths)
# ---------------------------------------------------------------------------
def _cos_matrix_dct(n: int, dtype) -> np.ndarray:
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    return np.cos(np.pi * k * (m + 0.5) / n).astype(dtype)


def dct_naive(x: np.ndarray) -> np.ndarray:
    """Definition (7a), along the last axis."""
    x = np.asarray(x)
    n = x.shape[-1]
    return x @ _cos_matrix_dct(n, x.dtype).T


def idct_naive(x: np.ndarray) -> np.ndarray:
    """Definition (7b), along the last axis."""
    x = np.asarray(x)
    n = x.shape[-1]
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    basis = np.cos(np.pi * m * (k + 0.5) / n).astype(x.dtype)
    basis[:, 0] = 0.5
    return x @ basis.T


def idxst_naive(x: np.ndarray) -> np.ndarray:
    """Definition (8a), along the last axis."""
    x = np.asarray(x)
    n = x.shape[-1]
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    basis = np.sin(np.pi * m * (k + 0.5) / n).astype(x.dtype)
    return x @ basis.T


# ---------------------------------------------------------------------------
# 2N-point FFT implementations (baseline "DCT-2N" of Fig. 11)
# ---------------------------------------------------------------------------
def dct_2n(x: np.ndarray) -> np.ndarray:
    """DCT via a 2N-point real FFT of the mirrored sequence."""
    x = np.asarray(x)
    n = x.shape[-1]
    twiddle = _plan(
        ("dct_2n", n),
        lambda: np.exp(-1j * np.pi * np.arange(n) / (2 * n)),
    )
    mirrored = np.concatenate([x, x[..., ::-1]], axis=-1)
    spectrum = np.fft.rfft(mirrored, axis=-1)[..., :n]
    return 0.5 * np.real(spectrum * twiddle).astype(x.dtype)


def idct_2n(x: np.ndarray) -> np.ndarray:
    """IDCT via a 2N-point real inverse FFT.

    The 2N-point spectrum ``V_k = x_k e^{j pi k / 2N}`` (``V_N = 0``,
    ``V_{2N-k} = conj(V_k)``) is Hermitian by construction, so only its
    one-sided half is materialized and ``irfft`` reconstructs the rest;
    the first N samples times N are exactly definition (7b).
    """
    x = np.asarray(x)
    n = x.shape[-1]
    twiddle = _plan(
        ("idct_2n", n),
        lambda: np.exp(1j * np.pi * np.arange(n) / (2 * n)),
    )
    spectrum = np.zeros(x.shape[:-1] + (n + 1,), dtype=np.complex128)
    spectrum[..., :n] = x * twiddle
    full = np.fft.irfft(spectrum, n=2 * n, axis=-1)
    return (full[..., :n] * n).astype(x.dtype)


# ---------------------------------------------------------------------------
# N-point real-FFT implementations (Makhoul; Algorithm 3)
# ---------------------------------------------------------------------------
def _check_even(n: int) -> None:
    if n % 2:
        raise ValueError(f"N-point fast transforms require even length, got {n}")


def dct_n(x: np.ndarray) -> np.ndarray:
    """DCT via an N-point real FFT (Algorithm 3, reorder kernel + RFFT)."""
    x = np.asarray(x)
    n = x.shape[-1]
    _check_even(n)
    half = n // 2
    # reorder kernel: even indices ascending, then odd indices descending
    reordered = np.empty_like(x)
    reordered[..., :half] = x[..., 0::2]
    reordered[..., half:] = x[..., ::-1][..., 0::2]
    spectrum = np.fft.rfft(reordered, axis=-1)  # one-sided, length n//2+1
    twiddle = _plan(
        ("dct_n", n),
        lambda: np.exp(-1j * np.pi * np.arange(n) / (2 * n)),
    )
    out = np.empty_like(x)
    out[..., :half + 1] = np.real(
        spectrum * twiddle[:half + 1]
    )
    # e^{-j pi t / 2N} kernel, mirrored half: y_t = Re(conj(X_{N-t}) W_t)
    out[..., half + 1:] = np.real(
        np.conj(spectrum[..., half - 1:0:-1]) * twiddle[half + 1:]
    )
    return out


def idct_n(x: np.ndarray) -> np.ndarray:
    """IDCT via an N-point real inverse FFT (Algorithm 3, lines 20-33)."""
    x = np.asarray(x)
    n = x.shape[-1]
    _check_even(n)
    half = n // 2
    twiddle = _plan(
        ("idct_n", n),
        lambda: np.exp(1j * np.pi * np.arange(half + 1) / (2 * n)),
    )
    # x'_t = (x_t - j x_{N-t}) e^{j pi t / 2N}, with x_N = 0
    upper = np.zeros(x.shape[:-1] + (half + 1,), dtype=np.complex128)
    upper[..., 0] = x[..., 0]
    upper[..., 1:] = x[..., 1:half + 1] - 1j * x[..., :half - 1:-1]
    upper *= twiddle
    signal = np.fft.irfft(upper, n=n, axis=-1)
    out = np.empty_like(x)
    out[..., 0::2] = signal[..., :half]
    out[..., 1::2] = signal[..., ::-1][..., :half]
    return out * (n / 2.0)


def idxst_n(x: np.ndarray) -> np.ndarray:
    """IDXST via the IDCT identity of eq. (8e): flip, IDCT, alternate signs."""
    x = np.asarray(x)
    n = x.shape[-1]
    flipped = np.zeros_like(x)
    flipped[..., 1:] = x[..., :0:-1]  # y_n = x_{N-n}, y_0 = x_N = 0
    signs = _plan(
        ("signs", n),
        lambda: np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
    )
    return (idct_n(flipped) * signs).astype(x.dtype)


# ---------------------------------------------------------------------------
# 2-D single-FFT implementations (Algorithm 4)
# ---------------------------------------------------------------------------
def _flip_zero(x: np.ndarray, axis: int) -> np.ndarray:
    """Return y with y[0]=0 and y[i]=x[N-i] along ``axis`` (eq. 12 shifts)."""
    out = np.zeros_like(x)
    src = [slice(None)] * x.ndim
    dst = [slice(None)] * x.ndim
    src[axis] = slice(None, 0, -1)
    dst[axis] = slice(1, None)
    out[tuple(dst)] = x[tuple(src)]
    return out


def dct2d_fft2(x: np.ndarray) -> np.ndarray:
    """2-D DCT via one 2-D real FFT (Algorithm 4, 2D_DCT).

    The reordered input is real, so only the one-sided ``rfft2``
    spectrum is computed; output columns beyond the Nyquist column
    follow from ``T[k1, k2] = conj(T[k1, N2-k2])`` where ``T`` is the
    axis-0-symmetrized spectrum of eq. (11).  The transform runs in
    float64 and is cast back to ``x.dtype``.
    """
    x = np.asarray(x)
    n1, n2 = x.shape
    _check_even(n1)
    _check_even(n2)
    h1, h2 = n1 // 2, n2 // 2
    w1, w2, wrap1 = _plan(("dct2d", n1, n2), lambda: (
        np.exp(-1j * np.pi * np.arange(n1)[:, None] / (2 * n1)),
        np.exp(-1j * np.pi * np.arange(n2)[None, :] / (2 * n2)),
        -np.arange(n1) % n1,  # wraparound flip along axis 0: k -> N1 - k
    ))
    # eq. (10): 2-D even/odd reordering
    pre = np.empty((n1, n2))
    pre[:h1, :h2] = x[0::2, 0::2]
    pre[h1:, :h2] = x[::-1, :][0::2, 0::2]
    pre[:h1, h2:] = x[:, ::-1][0::2, 0::2]
    pre[h1:, h2:] = x[::-1, ::-1][0::2, 0::2]
    spectrum = np.fft.rfft2(pre)  # (n1, h2 + 1)
    # eq. (11) postprocess on the half spectrum
    half = w1 * spectrum + np.conj(w1) * spectrum[wrap1]
    out = np.empty((n1, n2))
    out[:, :h2 + 1] = 0.5 * np.real(w2[:, :h2 + 1] * half)
    out[:, h2 + 1:] = 0.5 * np.real(w2[:, h2 + 1:]
                                    * np.conj(half[:, h2 - 1:0:-1]))
    return out.astype(x.dtype, copy=False)


def _idct2d_plan(n1: int, n2: int):
    """Preprocess constants for :func:`idct2d_fft2` on an n1 x n2 grid."""
    w1 = np.exp(1j * np.pi * np.arange(n1)[:, None] / (2 * n1))
    w2 = np.exp(1j * np.pi * np.arange(n2)[None, :] / (2 * n2))
    h2 = n2 // 2
    # index maps picking P[(-k1) % N1, (-k2) % N2] for k2 = 0 .. N2/2
    wrap1 = np.concatenate([[0], np.arange(n1 - 1, 0, -1)])
    wrap2 = np.concatenate([[0], np.arange(n2 - 1, h2 - 1, -1)])
    return w1 * w2, wrap1[:, None], wrap2[None, :]


def idct2d_fft2(x: np.ndarray) -> np.ndarray:
    """2-D IDCT via one 2-D real inverse FFT (Algorithm 4, 2D_IDCT).

    Only the real part of the inverse FFT is used, which equals the
    inverse FFT of the Hermitian part ``H = (P + conj(P(-k))) / 2`` of
    the preprocessed spectrum ``P`` — so ``irfft2`` on the one-sided
    ``H`` does half the transform work.
    """
    x = np.asarray(x)
    n1, n2 = x.shape
    _check_even(n1)
    _check_even(n2)
    w12, wrap1, wrap2 = _plan(
        ("idct2d", n1, n2), lambda: _idct2d_plan(n1, n2)
    )
    both = _flip_zero(_flip_zero(x, 0), 1)  # x(N1-n1, N2-n2)
    row = _flip_zero(x, 0)  # x(N1-n1, n2)
    col = _flip_zero(x, 1)  # x(n1, N2-n2)
    pre = w12 * ((x - both) - 1j * (row + col))
    h2 = n2 // 2
    hermitian = 0.5 * (pre[:, :h2 + 1] + np.conj(pre[wrap1, wrap2]))
    signal = np.fft.irfft2(hermitian, s=(n1, n2))
    # eq. (13): undo the 2-D even/odd reordering
    out = np.empty_like(x)
    h1 = n1 // 2
    out[0::2, 0::2] = signal[:h1, :h2]
    out[1::2, 0::2] = signal[::-1, :][:h1, :h2]
    out[0::2, 1::2] = signal[:, ::-1][:h1, :h2]
    out[1::2, 1::2] = signal[::-1, ::-1][:h1, :h2]
    return out * (n1 * n2 / 4.0)


def dct2d(x: np.ndarray, impl: str = "2d") -> np.ndarray:
    """2-D DCT (both axes) with a selectable implementation."""
    if impl == "2d":
        return dct2d_fft2(x)
    fn = {"2n": dct_2n, "n": dct_n, "naive": dct_naive}[impl]
    return fn(fn(np.asarray(x).T).T)


def idct2d(x: np.ndarray, impl: str = "2d") -> np.ndarray:
    """2-D IDCT (both axes) with a selectable implementation."""
    if impl == "2d":
        return idct2d_fft2(x)
    fn = {"2n": idct_2n, "n": idct_n, "naive": idct_naive}[impl]
    return fn(fn(np.asarray(x).T).T)


def idxst_idct(x: np.ndarray, impl: str = "2d") -> np.ndarray:
    """IDXST along axis 0, IDCT along axis 1 (for the x electric field).

    Algorithm 4's IDXST_IDCT: flip axis 0 (eq. 16), run 2-D IDCT, then
    alternate signs along axis 0 (eq. 17).
    """
    x = np.asarray(x)
    pre = _flip_zero(x, 0)
    out = idct2d(pre, impl=impl)
    signs = _plan(
        ("signs", x.shape[0]),
        lambda: np.where(np.arange(x.shape[0]) % 2 == 0, 1.0, -1.0),
    )
    return out * signs[:, None]


def idct_idxst(x: np.ndarray, impl: str = "2d") -> np.ndarray:
    """IDCT along axis 0, IDXST along axis 1 (for the y electric field)."""
    x = np.asarray(x)
    pre = _flip_zero(x, 1)
    out = idct2d(pre, impl=impl)
    signs = _plan(
        ("signs", x.shape[1]),
        lambda: np.where(np.arange(x.shape[1]) % 2 == 0, 1.0, -1.0),
    )
    return out * signs[None, :]
