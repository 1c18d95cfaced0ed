"""Gabor filtering steered by an orientation field.

Used in two directions:

- *synthesis* (SFinGe-style): iterated orientation-steered Gabor filtering of
  an initial random seed grows a ridge pattern that follows the field;
- *enhancement*: one pass of the same filter bank cleans a noisy impression
  before binarization and thinning.

For speed, orientations are quantized into ``n_orientations`` bins, the
image is FFT-convolved once per bin, and per-pixel outputs are composed from
the bin selected by the local orientation.  The convolution is the
``scipy.fft`` pipeline ``scipy.signal.fftconvolve(image, kernel, "same")``
runs for real inputs, step for step, so outputs are bit-identical to it;
the image spectrum is shared by all bins of one pass.
"""

from __future__ import annotations

import numpy as np
from scipy import fft

__all__ = ["gabor_kernel", "GaborBank"]


def gabor_kernel(orientation: float, wavelength: float,
                 sigma_parallel: float | None = None,
                 sigma_perpendicular: float | None = None) -> np.ndarray:
    """Real even-symmetric Gabor kernel for ridges at ``orientation``.

    ``orientation`` is the *ridge direction*; the cosine wave oscillates
    perpendicular to it.  Sigmas default to ~0.5 wavelength, the usual
    fingerprint-enhancement setting.
    """
    if wavelength <= 2.0:
        raise ValueError("wavelength must exceed 2 pixels")
    sigma_parallel = 0.6 * wavelength if sigma_parallel is None else sigma_parallel
    sigma_perpendicular = (
        0.5 * wavelength if sigma_perpendicular is None else sigma_perpendicular
    )
    half = int(np.ceil(3.0 * max(sigma_parallel, sigma_perpendicular)))
    coords = np.arange(-half, half + 1, dtype=np.float64)
    x, y = np.meshgrid(coords, coords)  # x: col offset, y: row offset

    # Rotate into the ridge frame: u along the ridge, v across it.
    cos_t, sin_t = np.cos(orientation), np.sin(orientation)
    u = x * cos_t + y * sin_t
    v = -x * sin_t + y * cos_t
    envelope = np.exp(-0.5 * ((u / sigma_parallel) ** 2 + (v / sigma_perpendicular) ** 2))
    carrier = np.cos(2.0 * np.pi * v / wavelength)
    kernel = envelope * carrier
    # Zero-DC so flat regions stay flat.
    kernel -= kernel.mean()
    return kernel


class GaborBank:
    """A bank of orientation-quantized Gabor filters at one ridge wavelength."""

    def __init__(self, wavelength: float, n_orientations: int = 16) -> None:
        if n_orientations < 4:
            raise ValueError("need at least 4 orientation bins")
        self.wavelength = float(wavelength)
        self.n_orientations = int(n_orientations)
        self.angles = np.arange(n_orientations) * np.pi / n_orientations
        self.kernels = [gabor_kernel(a, wavelength) for a in self.angles]

    def bin_of(self, orientation_field: np.ndarray) -> np.ndarray:
        """Nearest orientation-bin index per pixel."""
        step = np.pi / self.n_orientations
        bins = np.round(orientation_field / step).astype(int) % self.n_orientations
        return bins

    def filter(self, image: np.ndarray, orientation_field: np.ndarray) -> np.ndarray:
        """Filter ``image`` with the locally appropriate kernel everywhere."""
        image = np.asarray(image, dtype=np.float64)
        if image.shape != orientation_field.shape:
            raise ValueError("image and orientation field shapes differ")
        bins = self.bin_of(orientation_field)
        output = np.zeros_like(image)
        # Linear ("full") size, padded to a fast real-FFT length; "same"
        # mode keeps the centred image-sized window of the full result.
        full = [n + k - 1 for n, k in zip(image.shape, self.kernels[0].shape)]
        fshape = tuple(fft.next_fast_len(n, True) for n in full)
        window = tuple(slice((f - n) // 2, (f - n) // 2 + n)
                       for f, n in zip(full, image.shape))
        image_spectrum = fft.rfftn(image, fshape, axes=(0, 1))
        for index, kernel in enumerate(self.kernels):
            selection = bins == index
            if not selection.any():
                continue
            spectrum = fft.rfftn(kernel, fshape, axes=(0, 1))
            filtered = fft.irfftn(image_spectrum * spectrum, fshape, axes=(0, 1))
            output[selection] = filtered[window][selection]
        return output

    def synthesize(self, seed_image: np.ndarray, orientation_field: np.ndarray,
                   iterations: int = 6, gain: float = 3.0) -> np.ndarray:
        """Grow a ridge pattern by iterated filter-and-squash.

        Each pass filters with the steered bank then applies a soft
        sigmoid squashing; fixed points of this dynamic are ridge/valley
        stripes locked to the orientation field, which is exactly the
        SFinGe master-fingerprint construction.
        """
        if iterations < 1:
            raise ValueError("need at least one iteration")
        state = np.asarray(seed_image, dtype=np.float64)
        for _ in range(iterations):
            state = self.filter(state, orientation_field)
            scale = np.abs(state).max()
            if scale < 1e-12:
                raise ValueError("synthesis collapsed to a flat image; "
                                 "seed the image with non-zero content")
            state = np.tanh(gain * state / scale)
        # Map [-1, 1] to [0, 1] with ridges at 1.
        return 0.5 * (state + 1.0)
