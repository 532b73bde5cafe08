"""Physical and adimensional parameter sets for the nonlinear oscillator.

Values are immutable and all operations are pure.  Like every value
class of the package, the two here are named tuples: equal to, and
hashing like, the plain tuple of their fields.  The deformation
parameter is accepted either as an exact rational (symbolic pathways)
or a float (numeric pathways); conversions between the two are always
explicit, never implicit.  The acceptance sets (the spectra's and the
potential table's deformations, the SL, Gram and classical oracles'
parameters, and the ``verify`` groups) are written here once, for the
checks and for the command line, which reads them without the checks.
"""

import math
from collections import namedtuple
from fractions import Fraction

SPECTRUM_LAMBDAS = (0.8, 0.4, 0.3)  # the published bound levels
POTENTIAL_LAMBDAS = (-2.0, -1.0, 1.0, 2.0)
SL_LAMBDAS = (-0.3, -0.1, 0.0, 0.15, 0.3)
SL_TOL = 1e-6
GRAM_LAMBDAS = (-0.3, -0.1, 0.1, 0.3)
GRAM_TOL = 1e-8
GRAM_MAX_INDEX = 8
CLASSICAL_LAMBDAS = (0.5, -0.5, 0.1, -0.1)
CLASSICAL_AMPLITUDES = (0.5, 1.0)
CLASSICAL_PERIODS = 100
CLASSICAL_STEPS_PER_PERIOD = 10_000

# the check groups of ``verify`` in run order, and those whose checks
# take a deformation set and a tolerance from the command line
VERIFY_GROUPS = ("poly", "spectrum", "sl", "gram", "ladder", "commutator",
                 "eigen", "classical", "continuity")
OVERRIDABLE_GROUPS = ("sl", "gram")


class PhysicalParams(namedtuple("PhysicalParams", "m alpha hbar lam")):
    """Mass, frequency, action quantum and the physical coupling.

    Fields may be floats or Fractions; the derived quantities keep
    whatever exactness the inputs have.
    """

    __slots__ = ()

    def __new__(cls, m=1, alpha=1, hbar=1, lam=0):
        for name, v in (("m", m), ("alpha", alpha), ("hbar", hbar)):
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if isinstance(lam, float) and not math.isfinite(lam):
            raise ValueError("coupling must be finite")
        return super().__new__(cls, m, alpha, hbar, lam)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def beta(self):
        """Inverse square length scale m*alpha/hbar."""
        return self.m * self.alpha / self.hbar

    @property
    def g(self):
        """Potential strength m*alpha*(alpha + hbar*lam/m), exactly."""
        return self.m * self.alpha * (self.alpha + self.hbar * self.lam / self.m)

    @property
    def lam_adim(self):
        """Dimensionless deformation parameter."""
        return self.lam * self.hbar / (self.m * self.alpha)


class DeformationParam(namedtuple("DeformationParam",
                                  "lam half_width cutoff n_max",
                                  defaults=(None, None, None))):
    """Quantities that the sign of the dimensionless deformation fixes.

    For negative values the coordinate domain is the open interval
    (-half_width, half_width), half_width = 1/sqrt(|lam|); for positive
    values only finitely many states are normalizable: the indices
    m = 0..n_max with n_max the greatest integer strictly below
    cutoff = 1/lam.  Fields that the sign does not fix are None.
    """

    __slots__ = ()

    def is_bound(self, m: int) -> bool:
        """Whether the index m >= 0 is normalizable (m < cutoff)."""
        return self.n_max is None or m <= self.n_max

    def check_index(self, m: int) -> None:
        """Refuse a negative index, or one this deformation does not bind."""
        if m < 0:
            raise ValueError("index must be nonnegative")
        if not self.is_bound(m):
            raise ValueError(f"index {m} is not normalizable at deformation "
                             f"{self.lam} (cutoff {self.cutoff})")

    def top_index(self, cap: int) -> int:
        """A table's default top: the last bound index, at most ``cap``."""
        return cap if self.n_max is None else min(self.n_max, cap)


def classify(lam) -> DeformationParam:
    """Classify a finite deformation value by sign and derived quantities;
    a positive float below about 5.6e-309, whose cutoff 1/lam overflows
    float range, raises ValueError as a non-finite value does."""
    if isinstance(lam, float) and not math.isfinite(lam):
        raise ValueError(f"deformation parameter must be finite, got {lam}")
    if lam == 0:
        return DeformationParam(lam=lam)
    if lam > 0:
        cutoff = (
            Fraction(1) / lam if isinstance(lam, (Fraction, int)) else 1.0 / lam
        )
        if cutoff == math.inf:
            raise ValueError(f"deformation {lam} is too small: its cutoff "
                             "1/lambda overflows float range")
        # strict inequality m < cutoff: an integer cutoff k gives n_max = k-1,
        # since the borderline state's norm integral diverges
        n_max = math.ceil(cutoff) - 1
        return DeformationParam(lam=lam, cutoff=cutoff, n_max=n_max)
    return DeformationParam(lam=lam, half_width=1.0 / math.sqrt(-lam))
