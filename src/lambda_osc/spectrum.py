"""Closed-form spectrum of the deformed oscillator, both deformation signs.

Adimensional energies (units of hbar*alpha) follow the single formula
e_m = (m + 1/2) - (1/2) m^2 lam, which grows without bound for negative
deformation and is capped by the normalizability cutoff for positive
deformation.  The ladder route recomputes the same numbers by literal
summation over the shape-invariance chain, deliberately avoiding the
closed form so the two act as independent checks.
"""

from collections import namedtuple
from fractions import Fraction

from .params import PhysicalParams, classify


def energy(lam, m: int):
    """Adimensional level e_m = (m + 1/2) - (1/2) m^2 lam.

    Exact when ``lam`` is a Fraction.
    """
    if isinstance(lam, (Fraction, int)):
        return m + Fraction(1, 2) - Fraction(m * m, 2) * lam
    return (m + 0.5) - 0.5 * m * m * lam


EnergyLevel = namedtuple("EnergyLevel", "m e bound")


class SpectrumTable(namedtuple("SpectrumTable", "lam levels",
                               defaults=((),))):
    """The levels of ``energies`` at one deformation, in index order."""

    __slots__ = ()

    @property
    def energies(self):
        return [lv.e for lv in self.levels]

    @property
    def spacings(self):
        """Differences e_{m+1} - e_m = 1 - (m + 1/2) lam."""
        es = self.energies
        return [e2 - e1 for e1, e2 in zip(es, es[1:])]

    def rows(self):
        """(m, e_m, spacing-to-next, bound) rows for tabular output."""
        sp = self.spacings
        out = []
        for i, lv in enumerate(self.levels):
            out.append((lv.m, lv.e, sp[i] if i < len(sp) else None, lv.bound))
        return out


def energies(lam, m_max: int) -> SpectrumTable:
    """Levels m = 0..m_max with bound flags.

    For positive deformation, indices beyond the cutoff are still
    computable (the continuous curve extends past the physical range)
    but are flagged unbound.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    dp = classify(lam)
    levels = tuple(EnergyLevel(m=m, e=energy(lam, m), bound=dp.is_bound(m))
                   for m in range(m_max + 1))
    return SpectrumTable(lam=lam, levels=levels)


def bound_count(lam) -> int:
    """Number of normalizable states for positive deformation."""
    if not lam > 0:
        raise ValueError(
            "bound-state count is finite only for positive deformation"
        )
    return classify(lam).n_max + 1


def chain_parameter(p: PhysicalParams, k: int):
    """k-th frequency parameter of the factorization chain,
    alpha_k = alpha - (hbar*lam/m) k."""
    return p.alpha - (p.hbar * p.lam / p.m) * k


def chain_remainder(p: PhysicalParams, alpha_k):
    """Energy remainder at a chain parameter:
    R(alpha) = hbar*alpha + hbar^2 lam / (2m)."""
    return p.hbar * alpha_k + p.hbar * p.hbar * p.lam / (2 * p.m)


def ladder_energies(p: PhysicalParams, n_max: int) -> list:
    """Physical energies E_0..E_{n_max} of the factorized Hamiltonian.

    Computed by literal summation of the chain remainders, never by the
    closed form; exact when the parameters are Fractions.  The full
    Hamiltonian's levels sit (1/2) hbar*alpha above these.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    zero = p.hbar * 0
    out = [zero]
    acc = zero
    for k in range(1, n_max + 1):
        acc = acc + chain_remainder(p, chain_parameter(p, k))
        out.append(acc)
    return out


def continuous_curve(lam: float, m_values):
    """The level formula extended to real m, for curve exports."""
    return [(float(m), energy(float(lam), m)) for m in m_values]
