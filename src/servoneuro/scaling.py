"""Per-column affine scaling between raw volts and the network's working range."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class AffineScaling:
    """Column-wise map scaled = (raw - offset) * gain, invertible (offset
    finite, gain finite and nonzero)."""

    offset: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        offset = np.asarray(self.offset, dtype=float)
        gain = np.asarray(self.gain, dtype=float)
        if offset.shape != gain.shape or offset.ndim != 1:
            raise ValueError("offset and gain must be 1-D arrays of equal length")
        if np.any(gain == 0.0) or not np.all(np.isfinite(gain)):
            raise ValueError("scaling gain must be finite and nonzero")
        if not np.all(np.isfinite(offset)):
            raise ValueError("scaling offset must be finite")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "gain", gain)

    @property
    def width(self) -> int:
        return self.offset.size

    def apply(self, raw: np.ndarray) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - self.offset) * self.gain

    def invert(self, scaled: np.ndarray) -> np.ndarray:
        return np.asarray(scaled, dtype=float) / self.gain + self.offset

    @classmethod
    def to_unit_range(cls, data: np.ndarray) -> "AffineScaling":
        """Scaling that maps each column of `data` onto [-1, 1].

        A column whose span is negligible next to its magnitude (at most
        2**-20 of it), or so small (subnormal) that 2/span overflows, is
        treated as constant: gain 1, centered at its midpoint.  Its rounded
        midpoint can be off by half an ulp of the magnitude, which at a span
        of one ulp would scale the column onto [0, 2].  With gain 1 its scaled
        values stay within span/2 of 0, inside [-1, 1] for data within
        +-2**21.
        """
        data = np.asarray(data, dtype=float)
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        with np.errstate(divide="ignore", over="ignore"):
            span = hi - lo
            gain = 2.0 / span
        negligible = span <= 2.0**-20 * np.maximum(np.abs(lo), np.abs(hi))
        gain = np.where(np.isfinite(gain) & ~negligible, gain, 1.0)
        offset = (lo + hi) / 2.0
        return cls(offset, gain)

    def __eq__(self, other):
        if not isinstance(other, AffineScaling):
            return NotImplemented
        return np.array_equal(self.offset, other.offset) and np.array_equal(
            self.gain, other.gain
        )
