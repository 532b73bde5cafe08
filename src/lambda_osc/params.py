"""Physical and adimensional parameter sets for the nonlinear oscillator.

Values are immutable and all operations are pure.  The deformation
parameter is accepted either as an exact rational (symbolic pathways)
or a float (numeric pathways); conversions between the two are always
explicit, never implicit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

SIGN_NEGATIVE = "negative"
SIGN_ZERO = "zero"
SIGN_POSITIVE = "positive"


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, frequency, action quantum and the physical coupling.

    Fields may be floats or Fractions; the derived quantities keep
    whatever exactness the inputs have.
    """

    m: object = 1
    alpha: object = 1
    hbar: object = 1
    lam: object = 0

    def __post_init__(self):
        for name in ("m", "alpha", "hbar"):
            v = getattr(self, name)
            if not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if isinstance(self.lam, float) and not math.isfinite(self.lam):
            raise ValueError("coupling must be finite")

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


@dataclass(frozen=True)
class DeformationParam:
    """Sign classification of the dimensionless deformation parameter.

    For negative values the coordinate domain is the open interval
    (-half_width, half_width); for positive values only finitely many
    states are normalizable: the indices m = 0..n_max with n_max the
    greatest integer strictly below cutoff = 1/lam.
    """

    lam: object
    sign_class: str
    half_width: object = None   # 1/sqrt(|lam|), negative sign only
    cutoff: object = None       # 1/lam, positive sign only
    n_max: int | None = None    # greatest integer strictly below cutoff

    @property
    def bound_states(self):
        """Number of normalizable states (None means infinitely many)."""
        return None if self.n_max is None else self.n_max + 1


def classify(lam) -> DeformationParam:
    """Classify a finite deformation value by sign and derived quantities."""
    if isinstance(lam, float) and not math.isfinite(lam):
        raise ValueError(f"deformation parameter must be finite, got {lam}")
    if lam == 0:
        return DeformationParam(lam=lam, sign_class=SIGN_ZERO)
    if lam > 0:
        cutoff = (
            Fraction(1) / lam if isinstance(lam, (Fraction, int)) else 1.0 / lam
        )
        # strict inequality m < cutoff: an integer cutoff k gives n_max = k-1,
        # since the borderline state's norm integral diverges
        n_max = math.ceil(cutoff) - 1
        return DeformationParam(
            lam=lam, sign_class=SIGN_POSITIVE, cutoff=cutoff, n_max=n_max
        )
    return DeformationParam(
        lam=lam, sign_class=SIGN_NEGATIVE, half_width=1.0 / math.sqrt(-lam)
    )


def norm_tail_exponent(m: int, lam):
    """Large-y power of the norm integrand, 2m - 1 - 2/lam (lam > 0).

    The state m is normalizable exactly when this is below -1.
    """
    if not lam > 0:
        raise ValueError("tail exponent only meaningful for positive deformation")
    two_over = (
        Fraction(2) / lam if isinstance(lam, (Fraction, int)) else 2.0 / lam
    )
    return 2 * m - 1 - two_over


@dataclass(frozen=True)
class AdimMap:
    """Coordinate map between physical x and adimensional y.

    x = sqrt(hbar/(m*alpha)) * y and lam_phys = (m*alpha/hbar) * lam_adim,
    so 1 + lam_phys*x^2 = 1 + lam_adim*y^2 holds identically; the squared
    form of the map is exact for exact inputs.
    """

    params: PhysicalParams

    @property
    def length_scale_sq(self):
        """x^2 / y^2, i.e. hbar/(m*alpha); exact for exact params."""
        return self.params.hbar / (self.params.m * self.params.alpha)

    @property
    def lam_adim(self):
        return self.params.lam_adim

    def y_from_x(self, x) -> float:
        return float(x) / math.sqrt(float(self.length_scale_sq))

    def x_from_y(self, y) -> float:
        return float(y) * math.sqrt(float(self.length_scale_sq))

    def y_squared_from_x_squared(self, x_sq):
        """Exact inverse-square map (keeps Fractions exact)."""
        return x_sq / self.length_scale_sq


def to_adimensional(params: PhysicalParams, x):
    """Map a physical coordinate to (y, lam_adim).

    The coordinate comes back as a float (the scale is a square root);
    the deformation parameter keeps the exactness of the inputs.
    """
    amap = AdimMap(params)
    return amap.y_from_x(x), amap.lam_adim
