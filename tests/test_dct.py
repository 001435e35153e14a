"""Tests for the DCT/IDCT/IDXST transform library."""

import numpy as np
import pytest
import scipy.fft

from repro.ops import dct as D


@pytest.fixture
def rng():
    return np.random.default_rng(7)


SIZES = (4, 8, 16, 64)


class TestNaiveDefinitions:
    """The naive transforms must match the textbook definitions and scipy."""

    @pytest.mark.parametrize("n", SIZES)
    def test_dct_matches_scipy(self, rng, n):
        x = rng.normal(size=n)
        # paper eq. (7a) is unnormalized scipy DCT-II / 2
        np.testing.assert_allclose(
            D.dct_naive(x), scipy.fft.dct(x, type=2) / 2.0, atol=1e-10
        )

    @pytest.mark.parametrize("n", SIZES)
    def test_idct_matches_scipy(self, rng, n):
        x = rng.normal(size=n)
        # paper eq. (7b) is unnormalized scipy DCT-III / 2
        np.testing.assert_allclose(
            D.idct_naive(x), scipy.fft.dct(x, type=3) / 2.0, atol=1e-10
        )

    @pytest.mark.parametrize("n", SIZES)
    def test_inversion_constant(self, rng, n):
        """idct(dct(x)) == (N/2) x for this normalization pair."""
        x = rng.normal(size=n)
        np.testing.assert_allclose(
            D.idct_naive(D.dct_naive(x)), (n / 2.0) * x, atol=1e-9
        )

    def test_idxst_definition(self, rng):
        n = 8
        x = rng.normal(size=n)
        k = np.arange(n)[:, None]
        m = np.arange(n)[None, :]
        expected = (x[None, :] * np.sin(np.pi * m * (k + 0.5) / n)).sum(axis=1)
        np.testing.assert_allclose(D.idxst_naive(x), expected, atol=1e-10)

    def test_dct_batch_axis(self, rng):
        x = rng.normal(size=(3, 8))
        out = D.dct_naive(x)
        for i in range(3):
            np.testing.assert_allclose(out[i], D.dct_naive(x[i]), atol=1e-12)


class TestFastVsNaive:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("impl", [D.dct_2n, D.dct_n])
    def test_dct_variants(self, rng, n, impl):
        x = rng.normal(size=n)
        np.testing.assert_allclose(impl(x), D.dct_naive(x), atol=1e-9)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("impl", [D.idct_2n, D.idct_n])
    def test_idct_variants(self, rng, n, impl):
        x = rng.normal(size=n)
        np.testing.assert_allclose(impl(x), D.idct_naive(x), atol=1e-9)

    @pytest.mark.parametrize("n", SIZES)
    def test_idxst_n(self, rng, n):
        x = rng.normal(size=n)
        np.testing.assert_allclose(D.idxst_n(x), D.idxst_naive(x), atol=1e-9)

    def test_odd_length_rejected_by_n_point(self, rng):
        with pytest.raises(ValueError):
            D.dct_n(rng.normal(size=7))
        with pytest.raises(ValueError):
            D.idct_n(rng.normal(size=7))

    def test_batched_last_axis(self, rng):
        x = rng.normal(size=(5, 16))
        np.testing.assert_allclose(D.dct_n(x), D.dct_naive(x), atol=1e-9)


class Test2DTransforms:
    SHAPES = ((8, 8), (16, 8), (8, 32), (64, 64))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dct2d(self, rng, shape):
        x = rng.normal(size=shape)
        ref = D.dct_naive(D.dct_naive(x.T).T)
        np.testing.assert_allclose(D.dct2d_fft2(x), ref, atol=1e-9)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_idct2d(self, rng, shape):
        x = rng.normal(size=shape)
        ref = D.idct_naive(D.idct_naive(x.T).T)
        np.testing.assert_allclose(D.idct2d_fft2(x), ref, atol=1e-9)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_idxst_idct_sine_axis0(self, rng, shape):
        x = rng.normal(size=shape)
        ref = D.idct_naive(D.idxst_naive(x.T).T)
        np.testing.assert_allclose(D.idxst_idct(x), ref, atol=1e-9)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_idct_idxst_sine_axis1(self, rng, shape):
        x = rng.normal(size=shape)
        ref = D.idxst_naive(D.idct_naive(x.T).T)
        np.testing.assert_allclose(D.idct_idxst(x), ref, atol=1e-9)

    @pytest.mark.parametrize("impl", ["2n", "n", "2d", "naive"])
    def test_all_impls_agree(self, rng, impl):
        x = rng.normal(size=(16, 16))
        ref = D.dct2d(x, impl="naive")
        np.testing.assert_allclose(D.dct2d(x, impl=impl), ref, atol=1e-8)
        refi = D.idct2d(x, impl="naive")
        np.testing.assert_allclose(D.idct2d(x, impl=impl), refi, atol=1e-8)

    def test_2d_inversion(self, rng):
        x = rng.normal(size=(16, 32))
        n1, n2 = x.shape
        back = D.idct2d_fft2(D.dct2d_fft2(x))
        np.testing.assert_allclose(back, (n1 / 2.0) * (n2 / 2.0) * x,
                                   atol=1e-8)

    def test_linearity(self, rng):
        x = rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 8))
        np.testing.assert_allclose(
            D.dct2d_fft2(2.0 * x + y),
            2.0 * D.dct2d_fft2(x) + D.dct2d_fft2(y),
            atol=1e-9,
        )

    def test_constant_input_concentrates_at_dc(self):
        x = np.ones((8, 8))
        out = D.dct2d_fft2(x)
        assert out[0, 0] == pytest.approx(64.0)
        assert np.abs(out).sum() == pytest.approx(64.0, abs=1e-8)
