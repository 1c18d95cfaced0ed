"""image_ops, orientation, gabor, thinning: the low-level image pipeline."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import fftconvolve

from repro.fingerprint import (
    FingerprintClass,
    GaborBank,
    SyntheticOrientationField,
    binarize,
    block_view_stats,
    estimate_orientation,
    gabor_kernel,
    local_contrast,
    normalize,
    orientation_coherence,
    segment_foreground,
    synthesize_master,
    zhang_suen_thin,
)


def _stripes(shape=(96, 96), period=8.0, angle=0.0):
    """Synthetic parallel ridges at a given ridge *direction* angle."""
    rr, cc = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
    # Oscillation perpendicular to the ridge direction.
    v = -cc * np.sin(angle) + rr * np.cos(angle)
    return 0.5 + 0.5 * np.cos(2 * np.pi * v / period)


class TestNormalize:
    def test_targets_reached(self):
        rng = np.random.default_rng(0)
        img = rng.random((50, 50)) * 0.2 + 0.7
        out = normalize(img)
        assert abs(out.mean() - 0.5) < 0.05
        assert 0.0 <= out.min() and out.max() <= 1.0

    def test_flat_image(self):
        out = normalize(np.full((10, 10), 0.3))
        assert np.allclose(out, 0.5)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_output_in_unit_range(self, seed):
        img = np.random.default_rng(seed).random((20, 20))
        out = normalize(img)
        assert (out >= 0).all() and (out <= 1).all()


class TestSegmentation:
    def test_stripes_are_foreground(self):
        img = np.full((96, 96), 0.5)
        img[20:70, 20:70] = _stripes()[20:70, 20:70]
        mask = segment_foreground(img)
        assert mask[40, 40]
        assert not mask[5, 5]

    def test_blank_image_has_no_foreground(self):
        assert not segment_foreground(np.full((64, 64), 0.5)).any()

    def test_largest_component_kept(self):
        img = np.full((96, 96), 0.5)
        img[10:80, 10:60] = _stripes()[10:80, 10:60]  # big blob
        img[88:92, 88:92] = 0.0  # tiny speck
        mask = segment_foreground(img)
        assert mask[40, 30]
        assert not mask[90, 90]


class TestBlockStats:
    def test_shapes(self):
        mean, var = block_view_stats(np.zeros((48, 36)), block=12)
        assert mean.shape == (4, 3) and var.shape == (4, 3)

    def test_constant_blocks(self):
        img = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((12, 12)))
        mean, var = block_view_stats(img, block=12)
        assert np.allclose(var, 0.0)
        assert np.allclose(mean, [[0, 1], [1, 0]])


class TestBinarize:
    def test_stripes_binarize_to_half_density(self):
        ridges = binarize(_stripes())
        assert 0.35 < ridges.mean() < 0.65

    def test_mask_respected(self):
        mask = np.zeros((96, 96), dtype=bool)
        mask[:48] = True
        ridges = binarize(_stripes(), mask=mask)
        assert not ridges[48:].any()


class TestOrientationEstimation:
    @pytest.mark.parametrize("angle", [0.0, np.pi / 6, np.pi / 4, np.pi / 2, 2.2])
    def test_recovers_stripe_direction(self, angle):
        img = _stripes(angle=angle)
        est = estimate_orientation(img)
        # Compare in doubled-angle space (pi-periodic), central region only.
        target = angle % np.pi
        central = est[30:66, 30:66]
        err = np.abs(np.mod(central - target + np.pi / 2, np.pi) - np.pi / 2)
        assert np.median(err) < 0.1

    def test_coherence_high_on_stripes_low_on_noise(self):
        stripes = _stripes()
        noise = np.random.default_rng(3).random((96, 96))
        coh_stripes = orientation_coherence(stripes)[30:66, 30:66].mean()
        coh_noise = orientation_coherence(noise)[30:66, 30:66].mean()
        assert coh_stripes > 0.8
        assert coh_noise < coh_stripes - 0.3


class TestSyntheticField:
    def test_field_range(self):
        rng = np.random.default_rng(0)
        field = SyntheticOrientationField(FingerprintClass.whorl(), (64, 64), rng)
        assert field.field.shape == (64, 64)
        assert (field.field >= 0).all() and (field.field < np.pi).all()

    def test_perturbation_changes_field(self):
        base = SyntheticOrientationField(
            FingerprintClass.left_loop(), (64, 64),
            np.random.default_rng(1), perturbation=0.0)
        noisy = SyntheticOrientationField(
            FingerprintClass.left_loop(), (64, 64),
            np.random.default_rng(1), perturbation=0.3)
        assert not np.allclose(base.field, noisy.field)

    def test_all_classes_distinct_fields(self):
        rng = lambda: np.random.default_rng(5)  # noqa: E731
        fields = [
            SyntheticOrientationField(c, (64, 64), rng(), perturbation=0.0).field
            for c in FingerprintClass.all_classes()
        ]
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                assert not np.allclose(fields[i], fields[j])

    def test_sample_clamps(self):
        field = SyntheticOrientationField(
            FingerprintClass.arch(), (32, 32), np.random.default_rng(0))
        assert field.sample(-5.0, 100.0) == field.field[0, 31]

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            SyntheticOrientationField(
                FingerprintClass.arch(), (4, 4), np.random.default_rng(0))


class TestGabor:
    def test_kernel_zero_dc(self):
        kernel = gabor_kernel(0.7, 9.0)
        assert abs(kernel.mean()) < 1e-12

    def test_kernel_symmetry(self):
        kernel = gabor_kernel(0.0, 9.0)
        assert np.allclose(kernel, kernel[::-1, ::-1])

    def test_kernel_rejects_tiny_wavelength(self):
        with pytest.raises(ValueError):
            gabor_kernel(0.0, 1.5)

    def test_bank_strongest_response_at_matching_orientation(self):
        bank = GaborBank(8.0, n_orientations=8)
        img = _stripes(period=8.0, angle=0.0) - 0.5
        responses = []
        for angle in bank.angles:
            field = np.full(img.shape, angle)
            responses.append(np.abs(bank.filter(img, field))[30:66, 30:66].mean())
        assert int(np.argmax(responses)) == 0

    def test_bank_needs_four_orientations(self):
        with pytest.raises(ValueError):
            GaborBank(9.0, n_orientations=3)

    def test_filter_shape_mismatch(self):
        bank = GaborBank(9.0)
        with pytest.raises(ValueError):
            bank.filter(np.zeros((10, 10)), np.zeros((12, 12)))

    def test_synthesize_rejects_flat_seed(self):
        bank = GaborBank(9.0)
        with pytest.raises(ValueError):
            bank.synthesize(np.zeros((48, 48)), np.zeros((48, 48)))

    def test_synthesize_produces_stripes(self):
        rng = np.random.default_rng(2)
        bank = GaborBank(9.0)
        field = np.full((96, 96), 0.3)
        seed = rng.standard_normal((96, 96)) * 0.1
        out = bank.synthesize(seed, field, iterations=5)
        assert (out >= 0).all() and (out <= 1).all()
        est = estimate_orientation(out)[30:66, 30:66]
        err = np.abs(np.mod(est - 0.3 + np.pi / 2, np.pi) - np.pi / 2)
        assert np.median(err) < 0.25


class TestGaborExactness:
    """``GaborBank.filter`` is bit-identical to per-bin ``fftconvolve``."""

    @staticmethod
    def _reference(bank, image, field):
        bins = bank.bin_of(field)
        output = np.zeros_like(image)
        for index, kernel in enumerate(bank.kernels):
            selection = bins == index
            if selection.any():
                output[selection] = fftconvolve(image, kernel,
                                                mode="same")[selection]
        return output

    def test_filter_matches_fftconvolve_across_shapes(self):
        # A, B, A order: state one pass left behind for another FFT shape
        # would corrupt the second pass over shape A.
        rng = np.random.default_rng(13)
        bank = GaborBank(9.0)
        for shape in [(192, 192), (155, 160), (192, 192), (67, 131)]:
            image = rng.standard_normal(shape)
            field = rng.uniform(0.0, np.pi, shape)
            got = bank.filter(image, field)
            want = self._reference(bank, image, field)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))

    def test_fleet_master_image_is_pinned(self):
        master = synthesize_master("fleet-right-thumb",
                                   np.random.default_rng((3, 1)))
        assert hashlib.sha256(master.image.tobytes()).hexdigest() == (
            "506732302b948bdf7bf96a7e66c2792d5c15e6f567f4d92ac72409d1dac33974")


class TestThinning:
    def test_requires_boolean(self):
        with pytest.raises(ValueError):
            zhang_suen_thin(np.zeros((10, 10)))

    def test_thick_line_becomes_thin(self):
        img = np.zeros((30, 30), dtype=bool)
        img[10:16, 2:28] = True  # 6-px-thick horizontal bar
        skeleton = zhang_suen_thin(img)
        # Interior columns carry exactly one skeleton pixel.
        per_column = skeleton[:, 5:25].sum(axis=0)
        assert (per_column == 1).all()

    def test_skeleton_is_subset(self):
        rng = np.random.default_rng(0)
        img = binarize(_stripes(angle=0.5) + rng.normal(0, 0.02, (96, 96)))
        skeleton = zhang_suen_thin(img)
        assert not (skeleton & ~img).any()

    def test_empty_input(self):
        assert not zhang_suen_thin(np.zeros((20, 20), dtype=bool)).any()

    def test_single_pixel_survives(self):
        img = np.zeros((9, 9), dtype=bool)
        img[4, 4] = True
        assert zhang_suen_thin(img)[4, 4]

    def test_idempotent(self):
        img = np.zeros((30, 30), dtype=bool)
        img[10:16, 2:28] = True
        once = zhang_suen_thin(img)
        twice = zhang_suen_thin(once)
        assert (once == twice).all()
