"""Classical nonlinear oscillator: integration and the frequency law.

The equation of motion (1 + lam*x^2) x'' - lam*x x'^2 + alpha^2 x = 0
has quasi-harmonic solutions x = A sin(w t + phi) with the amplitude
restriction w^2 = alpha^2 / (1 + lam*A^2).  The integrator works in the
flattening coordinate u of ``params.chart``, x = S(a)/w with a = w*u,
and its conjugate momentum q = v / sqrt(z) = v / K(a), z = 1 + lam*x^2.
In (u, q) the Hamiltonian (unit mass) separates,

    H = (1/2) q^2 + V(x(u)),   V = (1/2) alpha^2 x^2 / z,
    dV/du = alpha^2 x / z^(3/2),

so the drift u += h*q and the kick q -= h*dV/du are both exact flows.
Their Strang composition kick-drift-kick (Stormer-Verlet) is explicit,
time-reversible, symplectic and second order, so the energy error stays
bounded over long runs instead of drifting.  Adjacent half-kicks share
one force evaluation (leapfrog); the momentum between them is the
synchronised one, used for energy, zero crossings and samples.  In the
canonical pair (x, p = v/z) of H = (1/2) z p^2 + V this is the same
kick-drift-kick scheme, so the two forms differ only by rounding.

V and its force depend on a only through r = T(a): V = c*r^2 with
c = alpha^2/(2 w^2), and dV/da = 2c*r*(1 - sig*r^2), because
1 - sig*T^2 = 1/K^2.  So a step makes one call of T and no division:
the stepper carries a and the momentum prescaled to p = w*h*q, so the
drift is a += p, while the energy stays in the units of H.  x has the
sign of a, so zero crossings are found on a, and S and K are evaluated
only for samples.
"""

import math
from collections import namedtuple

from .params import CLASSICAL_PERIODS, CLASSICAL_STEPS_PER_PERIOD, chart

# steps between the escape checks of a run that takes no samples
ESCAPE_CHECK_STEPS = 1 << 12


class DomainExitError(RuntimeError):
    """Trajectory reached the domain wall (negative coupling only)."""

    def __init__(self, time):
        super().__init__(f"trajectory left the domain at t = {time}")
        self.time = time

    def __reduce__(self):
        # rebuild from the time: args hold the formatted message
        return type(self), (self.time,)


ClassicalState = namedtuple("ClassicalState", "x v t", defaults=(0.0,))


class OrbitParams(namedtuple("OrbitParams", "amplitude omega phase",
                             defaults=(0.0,))):
    """Amplitude, constrained frequency, and phase of an exact orbit."""

    __slots__ = ()

    @classmethod
    def from_amplitude(cls, amplitude: float, alpha: float, lam: float,
                       phase: float = 0.0):
        if not alpha > 0:
            raise ValueError(f"alpha {alpha} must be positive")
        denom = 1.0 + lam * amplitude * amplitude
        if denom <= 0:
            raise ValueError(
                f"amplitude {amplitude} violates lam*A^2 > -1 at coupling {lam}"
            )
        return cls(amplitude=amplitude, omega=alpha / math.sqrt(denom),
                   phase=phase)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


def energy(state: ClassicalState, alpha: float, lam: float) -> float:
    """Conserved energy (v^2 + alpha^2 x^2)/(2(1 + lam*x^2)) at unit mass."""
    z = 1.0 + lam * state.x * state.x
    if z <= 0:
        raise ValueError("state outside the domain")
    return 0.5 * (state.v * state.v + alpha * alpha * state.x * state.x) / z


def ode_residual(orbit: OrbitParams, alpha: float, lam: float, t: float) -> float:
    """Residual of the equation of motion on the exact orbit (analytic
    derivatives); zero up to rounding when the frequency law holds."""
    w, a, ph = orbit.omega, orbit.amplitude, orbit.phase
    x = a * math.sin(w * t + ph)
    xd = a * w * math.cos(w * t + ph)
    xdd = -w * w * x
    return (1.0 + lam * x * x) * xdd - lam * x * xd * xd + alpha * alpha * x


# samples (t, x, v, E), one list each, appended to as the run goes
Trajectory = namedtuple("Trajectory", "t x v e")


def _leapfrog(x: float, v: float, t0: float, alpha: float, lam: float,
              h: float, n: int, traj: Trajectory | None = None,
              sample_every: int = 0):
    """Advance n leapfrog steps from (x, v) at time t0 in the (a, p) chart.

    Each whole chunk of sample_every steps ends with a sample (t, x, v, E)
    appended to traj, the one place S and K are called.  Without traj,
    the run stops after the chunk of ESCAPE_CHECK_STEPS steps in which an
    orbit escapes (positive coupling), since what is left of it changes
    none of the results.  Returns (max |E - E0|, first and last upward
    zero-crossing times of x, number of crossings after the first).
    Raises DomainExitError if a drift crosses a wall (negative coupling),
    and RuntimeError if a sample overflows, as when a step too coarse to
    hold the orbit lets it escape (positive coupling).
    """
    e0 = energy(ClassicalState(x, v), alpha, lam)
    a2 = alpha * alpha
    ch = chart(lam)
    w, sig, wall = ch.w, ch.sig, ch.wall
    T, S, K, S_inv = ch.funcs(math)
    a = S_inv(w * x)
    # p = w*h*q; E = kp*p^2 + c*r^2, half-kick p -= r*(g - g*sig*r^2)
    wh = w * h
    lo = -wall
    g = 0.5 * h * h * a2
    gs = g * sig
    c = 0.5 * a2 / (w * w)
    kp = 0.5 / (wh * wh)
    p = wh * v / math.sqrt(1.0 + lam * x * x)
    r = T(a)
    f = r * (g - gs * r * r)
    e_lo = e_hi = e0
    first_cross = last_cross = None
    crossings = 0
    chunk = sample_every if traj is not None else ESCAPE_CHECK_STEPS
    for start in range(0, n, chunk):
        for i in range(start + 1, min(start + chunk, n) + 1):
            p -= f
            b = a + p
            if not (lo < b and b < wall):
                raise DomainExitError(t0 + i * h)
            r = T(b)
            r2 = r * r
            f = r * (g - gs * r2)
            p -= f
            e = kp * p * p + c * r2
            if e > e_hi:
                e_hi = e
            elif e < e_lo:
                e_lo = e
            if a < 0.0 and b >= 0.0:
                last_cross = t0 + (i - 1 + a / (a - b)) * h
                if first_cross is None:
                    first_cross = last_cross
                else:
                    crossings += 1
            a = b
        if traj is None:
            # past the saturation of float tanh the kick is exactly 0, so
            # an outward p stays as it is: no crossing can follow
            if sig > 0.0 and r * r == 1.0 and p * r >= 0.0:
                break
        elif i == start + chunk:
            try:
                x, v = S(a) / w, p / wh * K(a)
                if math.isinf(x) or math.isinf(v):
                    raise OverflowError
            except OverflowError:
                raise RuntimeError(
                    f"trajectory left float range at t = {t0 + i * h}: "
                    "take more steps per period") from None
            traj.t.append(t0 + i * h)
            traj.x.append(x)
            traj.v.append(v)
            traj.e.append(e)
    return max(e_hi - e0, e0 - e_lo), first_cross, last_cross, crossings


def integrate(state0: ClassicalState, alpha: float, lam: float, total_time: float,
              h: float, sample_every: int = 1) -> Trajectory:
    """Fixed-step integration from an initial state; samples (t, x, v, E).

    Runs round(total_time / h) steps, at least one; a negative total_time,
    like h <= 0, sample_every < 1 or a state off the domain, is a ValueError,
    and a sample past float range (an orbit the step cannot hold) a
    RuntimeError.
    """
    if not total_time >= 0:
        raise ValueError(f"total_time {total_time} must be nonnegative")
    if h <= 0:
        raise ValueError("step must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be positive")
    if lam < 0 and not 1.0 + lam * state0.x * state0.x > 0:
        raise ValueError("initial state outside the domain")
    n = max(1, round(total_time / h))
    traj = Trajectory(t=[state0.t], x=[state0.x], v=[state0.v],
                      e=[energy(state0, alpha, lam)])
    _leapfrog(state0.x, state0.v, state0.t, alpha, lam, h, n, traj,
              sample_every)
    return traj


class PeriodProbe(namedtuple("PeriodProbe",
                             "period crossings max_rel_energy_drift")):
    """Zero-crossing period measurement plus energy-drift tracking."""

    __slots__ = ()


def measure_period(alpha: float, lam: float, amplitude: float,
                   n_periods: int = CLASSICAL_PERIODS,
                   steps_per_period: int = CLASSICAL_STEPS_PER_PERIOD,
                   ) -> PeriodProbe:
    """Run from the turning point and time upward zero crossings of x.

    The period is the mean crossing-to-crossing interval (equivalently
    the span divided by the count), with each crossing located by linear
    interpolation; the relative energy deviation from the initial value
    is tracked along the way.

    Raises ValueError for steps_per_period < 1 or an amplitude or alpha
    that OrbitParams refuses, DomainExitError if a step leaves the domain
    (lam < 0), and RuntimeError if fewer than two upward crossings are
    seen, as when n_periods is too small or a step too coarse to hold
    the orbit lets it escape (lam > 0), or if the energy drift is not
    finite, as when the energy's momentum scale 1/(w h)^2 overflows
    float range (normal |lam| up to about 1e-303 at 10^4 steps per
    period).
    """
    if steps_per_period < 1:
        raise ValueError("steps_per_period must be positive")
    orbit = OrbitParams.from_amplitude(amplitude, alpha, lam)
    h = orbit.period / steps_per_period
    drift, first_cross, last_cross, crossings = _leapfrog(
        amplitude, 0.0, 0.0, alpha, lam, h, n_periods * steps_per_period)
    if crossings < 1:
        raise RuntimeError(
            "no full period observed: integrate longer, or take more steps "
            "per period if the orbit escapes")
    if not math.isfinite(drift):
        raise RuntimeError(
            f"energy drift is not finite at deformation {lam}: the momentum "
            "scale 1/(sqrt(|lam|) h)^2 of the energy overflows float range")
    e0 = energy(ClassicalState(amplitude, 0.0), alpha, lam)
    return PeriodProbe(
        period=(last_cross - first_cross) / crossings,
        crossings=crossings,
        max_rel_energy_drift=drift / abs(e0),
    )
