"""Signed Q-format fixed-point number specifications.

The IzhiRISC-V NPU and DCU operate on signed fixed-point values.  The paper
(Table I) fixes the following formats:

=============  ==========  =====================================
Quantity       Format      Storage
=============  ==========  =====================================
``v``, ``u``   Q7.8        16-bit halves of the packed VU word
``c``          Q7.8        low half of ``rs2`` in ``nmldl``
``a``, ``b``   Q4.11       halves of ``rs1``/``rs2`` in ``nmldl``
``d``          Q4.11       high half of ``rs2`` in ``nmldl``
``Isyn``       Q15.16      32-bit register operand
=============  ==========  =====================================

A signed ``Qm.n`` value occupies ``1 + m + n`` bits (sign + integer +
fraction) and represents the real number ``raw / 2**n`` where ``raw`` is the
two's-complement integer payload.  This module provides :class:`QFormat`,
which performs quantisation, saturation, wrapping and float conversion, plus
the concrete format singletons used throughout the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "Rounding",
    "Overflow",
    "QFormat",
    "Q7_8",
    "Q4_11",
    "Q15_16",
    "Q16_16",
]

ArrayLike = Union[int, float, np.ndarray]


class Rounding(Enum):
    """Rounding mode applied when quantising a real value to a Q-format."""

    #: Round toward negative infinity (``floor``); matches a plain
    #: arithmetic right shift, which is what the RTL uses when narrowing.
    FLOOR = "floor"
    #: Round to nearest, ties away from zero.
    NEAREST = "nearest"
    #: Round toward zero (truncate the magnitude).
    TRUNCATE = "truncate"


class Overflow(Enum):
    """Behaviour when a value exceeds the representable range."""

    #: Clamp to the most positive / most negative representable value.
    SATURATE = "saturate"
    #: Two's-complement wrap-around (discard the upper bits).
    WRAP = "wrap"


@dataclass(frozen=True)
class QFormat:
    """A signed fixed-point format ``Qm.n``.

    Parameters
    ----------
    int_bits:
        Number of integer bits ``m`` (excluding the sign bit).
    frac_bits:
        Number of fractional bits ``n``.

    Notes
    -----
    The raw (stored) representation is a two's-complement integer of
    ``1 + int_bits + frac_bits`` bits.  All conversion helpers accept both
    Python scalars and NumPy arrays and are fully vectorised.
    """

    int_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError("Q-format bit counts must be non-negative")
        if self.total_bits > 64:
            raise ValueError("Q-formats wider than 64 bits are not supported")

    # ------------------------------------------------------------------ #
    # Static properties of the format
    # ------------------------------------------------------------------ #
    @property
    def total_bits(self) -> int:
        """Total storage width in bits (sign + integer + fraction)."""
        return 1 + self.int_bits + self.frac_bits

    @property
    def scale(self) -> int:
        """Scaling factor ``2**frac_bits`` between raw and real values."""
        return 1 << self.frac_bits

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer (most negative)."""
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer (most positive)."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min / self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max / self.scale

    @property
    def resolution(self) -> float:
        """Quantisation step (one least-significant bit) as a real value."""
        return 1.0 / self.scale

    @property
    def name(self) -> str:
        """Canonical ``Qm.n`` name of the format."""
        return f"Q{self.int_bits}.{self.frac_bits}"

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def from_float(
        self,
        value: ArrayLike,
        *,
        rounding: Rounding = Rounding.NEAREST,
        overflow: Overflow = Overflow.SATURATE,
    ) -> ArrayLike:
        """Quantise real value(s) to the raw integer representation.

        Parameters
        ----------
        value:
            Scalar or array of real values.
        rounding:
            Rounding mode used for the fractional quantisation.
        overflow:
            Saturate (default) or wrap values outside the representable
            range.

        Returns
        -------
        int or numpy.ndarray
            Raw two's-complement integer payload(s), dtype ``int64`` for
            arrays.

        Raises
        ------
        FloatingPointError
            When any value is NaN, which has no integer; infinities
            saturate like any other out-of-range value.
        """
        scaled = np.asarray(value, dtype=np.float64) * self.scale
        if np.isnan(scaled).any():
            raise FloatingPointError(f"NaN has no {self.name} value")
        if rounding is Rounding.NEAREST:
            raw = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
        elif rounding is Rounding.FLOOR:
            raw = np.floor(scaled)
        elif rounding is Rounding.TRUNCATE:
            raw = np.trunc(scaled)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown rounding mode {rounding!r}")
        if overflow is Overflow.SATURATE:
            # Saturate before the cast: an out-of-range float has no int64.
            raw = np.clip(raw, self.raw_min, self.raw_max)
        raw = raw.astype(np.int64)
        raw = self.handle_overflow(raw, overflow)
        if np.isscalar(value) or np.ndim(value) == 0:
            return int(raw)
        return raw

    def to_float(self, raw: ArrayLike) -> ArrayLike:
        """Convert raw integer payload(s) back to real value(s)."""
        result = np.asarray(raw, dtype=np.int64).astype(np.float64) / self.scale
        if np.isscalar(raw) or np.ndim(raw) == 0:
            return float(result)
        return result

    def handle_overflow(self, raw: ArrayLike, overflow: Overflow = Overflow.SATURATE) -> ArrayLike:
        """Apply the overflow policy to raw integer payload(s)."""
        arr = np.asarray(raw, dtype=np.int64)
        if overflow is Overflow.SATURATE:
            out = np.clip(arr, self.raw_min, self.raw_max)
        elif overflow is Overflow.WRAP:
            out = self.wrap(arr)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unknown overflow mode {overflow!r}")
        if np.isscalar(raw) or np.ndim(raw) == 0:
            return int(out)
        return out

    def wrap(self, raw: ArrayLike) -> ArrayLike:
        """Two's-complement wrap of arbitrary integers into this format."""
        arr = np.asarray(raw, dtype=np.int64)
        mask = (1 << self.total_bits) - 1
        wrapped = arr & mask
        sign_bit = 1 << (self.total_bits - 1)
        out = np.where(wrapped & sign_bit, wrapped - (1 << self.total_bits), wrapped)
        if np.isscalar(raw) or np.ndim(raw) == 0:
            return int(out)
        return out

    def saturate(self, raw: ArrayLike) -> ArrayLike:
        """Clamp raw integer payload(s) to the representable range."""
        return self.handle_overflow(raw, Overflow.SATURATE)

    def is_representable(self, value: float) -> bool:
        """Return ``True`` if ``value`` lies within the format's range."""
        return self.min_value <= value <= self.max_value

    # ------------------------------------------------------------------ #
    # Format-to-format conversion
    # ------------------------------------------------------------------ #
    def convert_raw(
        self,
        raw: ArrayLike,
        target: "QFormat",
        *,
        rounding: Rounding = Rounding.FLOOR,
        overflow: Overflow = Overflow.SATURATE,
    ) -> ArrayLike:
        """Re-quantise raw payload(s) in this format into ``target``.

        Shifting right (losing fractional bits) applies ``rounding``;
        shifting left is exact.  The result is range-checked according to
        ``overflow``.
        """
        arr = np.asarray(raw, dtype=np.int64)
        shift = target.frac_bits - self.frac_bits
        if shift >= 0:
            out = arr << shift
        else:
            down = -shift
            if rounding is Rounding.FLOOR:
                out = arr >> down
            elif rounding is Rounding.NEAREST:
                out = (arr + (1 << (down - 1))) >> down
            elif rounding is Rounding.TRUNCATE:
                out = np.where(arr >= 0, arr >> down, -((-arr) >> down))
            else:  # pragma: no cover - enum is exhaustive
                raise ValueError(f"unknown rounding mode {rounding!r}")
        out = target.handle_overflow(out, overflow)
        if np.isscalar(raw) or np.ndim(raw) == 0:
            return int(out)
        return out

    # ------------------------------------------------------------------ #
    # Unsigned bit-pattern helpers (for packing into machine words)
    # ------------------------------------------------------------------ #
    def to_unsigned(self, raw: ArrayLike) -> ArrayLike:
        """Return the raw payload as an unsigned bit pattern of ``total_bits``."""
        arr = np.asarray(raw, dtype=np.int64)
        mask = (1 << self.total_bits) - 1
        out = arr & mask
        if np.isscalar(raw) or np.ndim(raw) == 0:
            return int(out)
        return out

    def from_unsigned(self, bits: ArrayLike) -> ArrayLike:
        """Interpret an unsigned bit pattern as a signed raw payload."""
        return self.wrap(bits)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: 16-bit format used for the membrane potential ``v``, the recovery
#: variable ``u`` and the reset parameter ``c``.
Q7_8 = QFormat(7, 8)

#: 16-bit format used for the Izhikevich parameters ``a``, ``b`` and ``d``.
Q4_11 = QFormat(4, 11)

#: 32-bit format used for the synaptic current ``Isyn``.
Q15_16 = QFormat(15, 16)

#: 33-bit-range alias kept for accumulator headroom experiments.
Q16_16 = QFormat(16, 16)
