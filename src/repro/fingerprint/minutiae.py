"""Minutiae extraction via the crossing-number method.

On a one-pixel skeleton, the crossing number CN of a ridge pixel — half the
sum of absolute differences around its 8-neighbourhood — classifies it:
CN=1 is a ridge ending, CN=3 a bifurcation.  Raw detections are filtered
against the foreground mask border (where ridge truncation creates spurious
endings) and de-duplicated within a minimum separation.

Each minutia carries a direction (the local ridge orientation, resolved to
[0, 2*pi) by probing the skeleton) so the matcher can reject pairings with
inconsistent angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .image_ops import binarize, segment_foreground
from .orientation import estimate_orientation
from .thinning import zhang_suen_thin

__all__ = ["Minutia", "extract_minutiae", "minutiae_from_image"]

ENDING = "ending"
BIFURCATION = "bifurcation"


@dataclass(frozen=True)
class Minutia:
    """One minutia: position (pixels), direction (radians), and kind."""

    row: float
    col: float
    direction: float  # [0, 2*pi)
    kind: str  # ENDING or BIFURCATION

    def __copy__(self) -> "Minutia":
        # Frozen ⇒ value-immutable: device cloning (the fleet factory
        # deepcopies whole enrolled devices) may share minutiae freely.
        return self

    def __deepcopy__(self, memo) -> "Minutia":
        return self


def _crossing_number(skeleton: np.ndarray) -> np.ndarray:
    """Crossing number at each skeleton pixel (0 elsewhere)."""
    padded = np.pad(skeleton.astype(np.int32), 1)
    # P2..P9 clockwise, then close the cycle.
    ring = [
        padded[:-2, 1:-1], padded[:-2, 2:], padded[1:-1, 2:], padded[2:, 2:],
        padded[2:, 1:-1], padded[2:, :-2], padded[1:-1, :-2], padded[:-2, :-2],
    ]
    ring.append(ring[0])
    cn = sum(np.abs(ring[i] - ring[i + 1]) for i in range(8)) // 2
    return np.where(skeleton, cn, 0)


def _resolve_direction(skeleton: np.ndarray, row: int, col: int,
                       orientation: float, kind: str) -> float:
    """Resolve the pi-periodic ridge orientation to a full angle.

    For an ending, the direction points *along the ridge away from the end*;
    we pick the half-plane containing more skeleton mass near the minutia.
    """
    size = 6
    r0, r1 = max(row - size, 0), min(row + size + 1, skeleton.shape[0])
    c0, c1 = max(col - size, 0), min(col + size + 1, skeleton.shape[1])
    local = skeleton[r0:r1, c0:c1]
    rr, cc = np.nonzero(local)
    if len(rr) < 2:
        return orientation % (2.0 * np.pi)
    dr = rr + r0 - row
    dc = cc + c0 - col
    # Project neighbours onto the orientation axis; the sign of the mean
    # projection picks the ridge-bearing half.
    projection = dc * np.cos(orientation) + dr * np.sin(orientation)
    if projection.sum() >= 0.0:
        return orientation % (2.0 * np.pi)
    return (orientation + np.pi) % (2.0 * np.pi)


def extract_minutiae(skeleton: np.ndarray, mask: np.ndarray,
                     orientation_field: np.ndarray,
                     border_margin: int = 8,
                     min_separation: float = 6.0) -> list[Minutia]:
    """Detect, filter and orient minutiae on a skeleton.

    ``border_margin`` pixels next to the mask boundary are excluded: mask
    truncation manufactures ridge endings there that do not exist on the
    finger (critical for the paper's partial captures, whose border is most
    of the patch).
    """
    if skeleton.dtype != bool:
        raise ValueError("skeleton must be boolean")
    cn = _crossing_number(skeleton)

    interior = ndimage.binary_erosion(
        mask, structure=np.ones((3, 3)), iterations=border_margin,
        border_value=0,
    )

    detections: list[Minutia] = []
    for kind, cn_value in ((ENDING, 1), (BIFURCATION, 3)):
        rows, cols = np.nonzero((cn == cn_value) & interior)
        for r, c in zip(rows.tolist(), cols.tolist()):
            direction = _resolve_direction(
                skeleton, r, c, float(orientation_field[r, c]), kind
            )
            detections.append(Minutia(float(r), float(c), direction, kind))

    # De-duplicate: clusters of detections within min_separation collapse to
    # one (keeps the first; ordering is deterministic row-major).
    detections.sort(key=lambda m: (m.row, m.col))
    kept: list[Minutia] = []
    for minutia in detections:
        if all(
            (minutia.row - other.row) ** 2 + (minutia.col - other.col) ** 2
            >= min_separation**2
            for other in kept
        ):
            kept.append(minutia)
    return kept


def minutiae_from_image(image: np.ndarray, mask: np.ndarray | None = None,
                        block: int = 12, border_margin: int = 5) -> list[Minutia]:
    """Full pipeline: image -> mask -> binarize -> thin -> minutiae."""
    if mask is None:
        mask = segment_foreground(image, block=block)
    orientation = estimate_orientation(image, block=block)
    ridges = binarize(image, mask=mask, block=block)
    skeleton = zhang_suen_thin(ridges)
    return extract_minutiae(skeleton, mask, orientation, border_margin=border_margin)
