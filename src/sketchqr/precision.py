"""Floating-point precision tags, rounding, and the high/low policy object.

An array lives in the dtype of the format it is computed in: n-dimensional
data in policy.low_dtype, sketched coefficients and triangular factors in
policy.high_dtype.  A cast from one to the other is exact whenever it
widens, and rounding through the native numpy dtype gives correctly rounded
(round-to-nearest-even) results per elementary operation, which is the
emulation model used by all the precision sweeps.  Norms accumulate in
float64, and the entry points return float64 results.  Half arithmetic
runs as float32 with one rounding to half per sum over the column count
(linalg.matmul_in, an ordered einsum), bitwise equal to numpy's float16
operations (but for the sign of a NaN made from two NaNs) and faster:
numpy's float16 loops are several times slower than its float32 ones, and
float16 has no BLAS kernel.  The sketches accumulate in float32 and round
their result to half once (sketching.py).
"""

from dataclasses import dataclass

import numpy as np

HALF = "half"
SINGLE = "single"
DOUBLE = "double"
PRECISIONS = (HALF, SINGLE, DOUBLE)
# the tags a run takes: a uniform format, or "mixed" (half storage, double
# coefficients)
MIXED = "mixed"
PRECISION_TAGS = PRECISIONS + (MIXED,)

DTYPES = {HALF: np.float16, SINGLE: np.float32, DOUBLE: np.float64}

# unit roundoff u = 2**-p for p significand bits including the implicit one
UNIT_ROUNDOFF = {HALF: 2.0 ** -11, SINGLE: 2.0 ** -24, DOUBLE: 2.0 ** -53}


class PrecisionRangeError(ArithmeticError):
    """A finite value overflowed the representable range of a lower format."""


def _check_tag(tag):
    if tag not in PRECISIONS:
        raise ValueError(f"unknown precision {tag!r}, expected one of {PRECISIONS}")


def round_to(a, tag):
    """Round values to the nearest representable numbers of the target format.

    Returns a new array of the format's dtype.  Non-floating input is read
    as float64 first.  Finite inputs that overflow the target range raise
    PrecisionRangeError; infinities and NaNs pass through unchanged.
    """
    _check_tag(tag)
    a = np.asarray(a)
    if a.dtype.kind != "f":
        a = np.asarray(a, dtype=np.float64)
    dtype = np.dtype(DTYPES[tag])
    if dtype.itemsize >= a.dtype.itemsize:
        # a widening cast is exact
        return a.astype(dtype)
    with np.errstate(over="ignore"):
        r = a.astype(dtype)
    overflowed = np.isfinite(a) & ~np.isfinite(r)
    if np.any(overflowed):
        worst = np.max(np.abs(np.extract(overflowed, a)))
        raise PrecisionRangeError(f"value {worst:g} overflows {tag} range")
    return r


@dataclass(frozen=True)
class PrecisionPolicy:
    """Pair of precisions: `low` for high-dimensional work, `high` for the rest.

    high applies to sketched-space coefficients, norms, the triangular factors
    and solves; low applies to n-dimensional storage and updates.  `high` must
    be at least as precise as `low`.
    """

    high: str = DOUBLE
    low: str = DOUBLE

    def __post_init__(self):
        _check_tag(self.high)
        _check_tag(self.low)
        if UNIT_ROUNDOFF[self.high] > UNIT_ROUNDOFF[self.low]:
            raise ValueError(f"high precision {self.high!r} is coarser than low {self.low!r}")

    @classmethod
    def uniform(cls, tag):
        return cls(high=tag, low=tag)

    @classmethod
    def mixed(cls, high=DOUBLE, low=HALF):
        return cls(high=high, low=low)

    @property
    def high_dtype(self):
        return DTYPES[self.high]

    @property
    def low_dtype(self):
        return DTYPES[self.low]

    @property
    def u_high(self):
        return UNIT_ROUNDOFF[self.high]

    @property
    def u_low(self):
        return UNIT_ROUNDOFF[self.low]


DOUBLE_POLICY = PrecisionPolicy()


def policy_from_tag(tag):
    """A tag of PRECISION_TAGS -> policy.  'mixed' means half storage, double
    coefficients."""
    if tag not in PRECISION_TAGS:
        raise ValueError(f"unknown precision {tag!r}, expected one of {PRECISION_TAGS}")
    if tag == MIXED:
        return PrecisionPolicy.mixed()
    return PrecisionPolicy.uniform(tag)
