"""Ladder operators, partner potentials, and the shape-invariance chain.

All operator algebra runs exactly on the closed z^s * Q family; floats
appear only at evaluation edges.  The adimensional operators (per unit
sqrt(hbar*alpha/2)) are

    lower(b):  z^p Q  ->  z^(p-1/2) [ (b + 2*lam*p) y Q + z Q' ]
    raise(b):  z^p Q  ->  z^(p-1/2) [ (b - 2*lam*p) y Q - z Q' ]

with b the chain parameter 1 - k*lam (the frequency ratio alpha_k/alpha).
The factorized Hamiltonian per (hbar*alpha) is (1/2) raise(b) lower(b);
the full oscillator Hamiltonian sits 1/2 above the b = 1 member.  At
zero deformation the family envelope degenerates to the Gaussian and the
operators reduce to the classical -d/dy + y and d/dy + y forms.

Both operators are the one first-order kernel of the family,
z^(p-1/2) (alpha*y*Q + beta*z*Q') (``LadderFunction.first_order``), with
beta = +1 (lower) or -1 (raise) and alpha = b + 2*beta*lam*p; at zero
deformation the Gaussian's derivative shifts alpha to b - 1 (lower) and
b + 1 (raise).  ``lowering`` and ``raising`` are these (b, beta, ds)
steps, with ds = -1/2 and no deformation of their own.  Since
gcd(z, y) = 1, the result keeps z out of Q whenever alpha != 0, so only
alpha = 0 (as when lowering a chain ground state) divides by z.  ``build_state`` hands its whole raising chain to the
kernel in one call and returns the family member it produces.
"""

import math
from fractions import Fraction

from .exact import exact_rational
from .params import PhysicalParams, classify
from .polynomials import LadderFunction, LambdaPoly


def lowering(b=1):
    """lower(b) as a (b, beta, ds) step of ``LadderFunction.first_order``;
    it acts at the deformation of the function it is applied to, so only
    ``b`` is fixed here.  The physical overall scale sqrt(hbar*alpha/2)
    multiplies every application and is kept out of the exact algebra."""
    return exact_rational(b), 1, Fraction(-1, 2)


def raising(b=1):
    """raise(b) as a (b, beta, ds) step, like ``lowering``."""
    return exact_rational(b), -1, Fraction(-1, 2)


def chain_b(k: int, lam) -> Fraction:
    """Adimensional chain parameter b_k = 1 - k*lam."""
    return 1 - k * exact_rational(lam)


def apply(op, f: LadderFunction) -> LadderFunction:
    """Apply a ladder operator exactly within the closed family."""
    return f.first_order([op])


def ground_function(lam, b=1) -> LadderFunction:
    """Chain ground state z^(-b/(2 lam)) (Gaussian at zero deformation),
    annihilated exactly by lowering(b)."""
    lam = exact_rational(lam)
    if lam == 0:
        return LadderFunction(0, 0, LambdaPoly.one(Fraction(0)))
    return LadderFunction(lam, -exact_rational(b) / (2 * lam), LambdaPoly.one(lam))


def build_state(n: int, lam) -> LadderFunction:
    """n-th eigenfunction by composing raising operators down the chain.

    Applies raise(b_0) ... raise(b_{n-1}) to the ground state of the
    chain endpoint (exponent -(1 - n*lam)/(2*lam)) and returns the family
    member z^(-1/(2 lam)) Q_n (the Gaussian times Q_n at zero
    deformation); Q_n comes out proportional to the
    generating-normalization polynomial of the same index.
    """
    lam = exact_rational(lam)
    classify(lam).check_index(n)
    return ground_function(lam, chain_b(n, lam)).first_order(
        [raising(chain_b(k, lam)) for k in range(n - 1, -1, -1)]
    )


# -- Hamiltonians on the family ----------------------------------------------


def hamiltonian_chain(f: LadderFunction, b=1) -> LadderFunction:
    """(1/2) raise(b) lower(b) applied to f: the factorized Hamiltonian
    at chain parameter b, per (hbar*alpha)."""
    return apply(raising(b), apply(lowering(b), f)).scale(Fraction(1, 2))


def hamiltonian_chain_partner(f: LadderFunction, b=1) -> LadderFunction:
    """(1/2) lower(b) raise(b) applied to f (the partner ordering)."""
    return apply(lowering(b), apply(raising(b), f)).scale(Fraction(1, 2))


def hamiltonian_diff_form(f: LadderFunction, b=1) -> LadderFunction:
    """The chain Hamiltonian written out as a differential expression:
    -(1/2)(z f'' + lam*y f') + [(1/2) b (b + lam) y^2 z^-1 - b/2] f.

    Independent of the operator-composition route; used to verify the
    factorization identity exactly.
    """
    lam = f.lam
    b = Fraction(b)
    df = f.differentiate()
    ddf = df.differentiate()
    kinetic = ddf.times_z_power(1) + df.times_y().scale(lam)
    ysq = f.times_y().times_y().times_z_power(-1)
    return (
        kinetic.scale(Fraction(-1, 2))
        + ysq.scale(b * (b + lam) / 2)
        - f.scale(b / 2)
    )


def partner_relation_residual(f: LadderFunction, b=1) -> LadderFunction:
    """Exact residual of the partner relation on f:

        (1/2) lower(b) raise(b) f - (1/2) raise(b) lower(b) f - b * z^-1 f

    The difference of the two orderings is the commutator, which is the
    non-constant b/z per (hbar*alpha); in particular the partner
    Hamiltonian is NOT a constant shift of the factorized one away from
    zero deformation.
    """
    b = Fraction(b)
    comm = hamiltonian_chain_partner(f, b) - hamiltonian_chain(f, b)
    return comm - f.times_z_power(-1).scale(b)


def shape_invariance_residual(f: LadderFunction, b=1) -> LadderFunction:
    """Exact residual of the shape-invariance condition on f:

        (1/2) lower(b) raise(b) f
      - (1/2) raise(b-lam) lower(b-lam) f  -  (b - lam/2) f

    which is the zero function when the condition holds (the remainder
    per (hbar*alpha) at the shifted parameter is b - lam + lam/2).
    """
    lam = f.lam
    b = Fraction(b)
    b1 = b - lam
    lhs = hamiltonian_chain_partner(f, b)
    rhs = hamiltonian_chain(f, b1) + f.scale(b1 + lam / 2)
    return lhs - rhs


def conjugation_residual(p, g: LadderFunction) -> LadderFunction:
    """Exact residual of the conjugation identity

        z^p sqrt(z) d/dy [ z^-p g ]  +  [ -sqrt(z) d/dy + 2*p*lam*y/sqrt(z) ] g

    (both sides stay inside the family; the sum vanishes identically).
    """
    lam = g.lam
    if lam == 0:
        raise ValueError("conjugation identity needs a nonzero deformation")
    p = Fraction(p)
    lhs = g.times_z_power(-p).differentiate().times_z_power(p + Fraction(1, 2))
    rhs = (
        g.differentiate().times_z_power(Fraction(1, 2)).scale(-1)
        + g.times_y().times_z_power(Fraction(-1, 2)).scale(2 * p * lam)
    )
    return lhs + rhs


# -- physical-unit surfaces ---------------------------------------------------


def superpotential(x, params: PhysicalParams) -> float:
    """W = x / sqrt(1 + lam*x^2) in physical units."""
    return float(x) / math.sqrt(1.0 + float(params.lam) * float(x) ** 2)


def partner_potentials(params: PhysicalParams):
    """The two partner potentials as functions of the physical coordinate:

        U1 = (1/2) m*alpha*(alpha + hbar*lam/m) W^2 - (1/2) hbar*alpha
        U2 = (1/2) m*alpha*(alpha - hbar*lam/m) W^2 + (1/2) hbar*alpha

    They satisfy U1 + U2 = m*alpha^2 W^2, i.e. U2 = 2*Ws^2 - U1 with the
    scaled superpotential Ws = sqrt(m/2)*alpha*W.
    """
    m, alpha, hbar, lam = (
        float(params.m),
        float(params.alpha),
        float(params.hbar),
        float(params.lam),
    )
    half_ha = 0.5 * hbar * alpha
    c1 = 0.5 * m * alpha * (alpha + hbar * lam / m)
    c2 = 0.5 * m * alpha * (alpha - hbar * lam / m)

    def u1(x):
        w = superpotential(x, params)
        return c1 * w * w - half_ha

    def u2(x):
        w = superpotential(x, params)
        return c2 * w * w + half_ha

    return u1, u2


def commutator_closed_form(x, params: PhysicalParams) -> float:
    """[lower, raise] at a point: (1 - lam*x^2/(1+lam*x^2)) hbar*alpha,
    i.e. hbar*alpha / (1 + lam*x^2)."""
    lam = float(params.lam)
    z = 1.0 + lam * float(x) ** 2
    if z <= 0:
        raise ValueError("coordinate outside the domain")
    return float(params.hbar) * float(params.alpha) / z


def commutator_via_operators(x, params: PhysicalParams,
                             g: LadderFunction | None = None) -> float:
    """The same commutator evaluated by operator composition on a test
    function: ((lower raise - raise lower) g)(y) / g(y) times the
    physical scale.  The test function must not vanish at the point."""
    lam = exact_rational(params.lam_adim)
    if g is None:
        g = LadderFunction(lam, Fraction(1), LambdaPoly.one(lam))
    if g.lam != lam:
        raise ValueError("test function deformation value disagrees")
    beta = float(params.beta)  # y = sqrt(beta) x
    y = float(x) * beta**0.5
    comm = (hamiltonian_chain_partner(g) - hamiltonian_chain(g)).scale(2)
    gy = g(y)
    if gy == 0:
        raise ValueError("test function vanishes at the sample point")
    scale = 0.5 * float(params.hbar) * float(params.alpha)
    return scale * comm(y) / gy
