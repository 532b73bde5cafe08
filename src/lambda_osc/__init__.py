"""Exactly solvable structures of the deformed quantum nonlinear oscillator.

The package provides the deformed Hermite polynomial family (three
independent exact constructions), closed-form spectra for both signs of
the deformation, orthogonality under the invariant measure, the
factorization/shape-invariance ladder, an independent finite-difference
eigensolver, and the classical amplitude-frequency law, together with a
command-line tool (``lambda-osc``) that exports tables and runs the
cross-validation suite.
"""

from .classical import ClassicalState, OrbitParams, measure_period
from .exact import LamPoly, LamRatio
from .factorization import (
    LadderOperator,
    apply,
    build_state,
    commutator_closed_form,
    conjugation_residual,
    partner_potentials,
)
from .hermite import (
    derivative_relation_check,
    generating_coeffs,
    leading_coefficient,
    proportionality,
    rodrigues,
    series_solution,
    three_term_next,
)
from .params import DeformationParam, PhysicalParams, classify
from .polynomials import LadderFunction, LambdaPoly
from .quadrature import QuadratureSpec, integrate_measure
from .spectrum import (
    EnergyLevel,
    SpectrumTable,
    bound_count,
    energies,
    energy,
    ladder_energies,
)
from .sturm_liouville import SLDiscretization, assemble, eigenvalues, refine
from .wavefunctions import (
    WaveFunction,
    envelope,
    evaluate,
    gram_matrix,
    mu_inner,
    nodes,
    norm_constant,
    wavefunction,
)

__version__ = "0.1.0"

__all__ = [
    "ClassicalState",
    "DeformationParam",
    "EnergyLevel",
    "LadderFunction",
    "LadderOperator",
    "LamPoly",
    "LamRatio",
    "LambdaPoly",
    "OrbitParams",
    "PhysicalParams",
    "QuadratureSpec",
    "SLDiscretization",
    "SpectrumTable",
    "WaveFunction",
    "apply",
    "assemble",
    "bound_count",
    "build_state",
    "classify",
    "commutator_closed_form",
    "conjugation_residual",
    "derivative_relation_check",
    "eigenvalues",
    "energies",
    "energy",
    "envelope",
    "evaluate",
    "generating_coeffs",
    "gram_matrix",
    "integrate_measure",
    "ladder_energies",
    "leading_coefficient",
    "measure_period",
    "mu_inner",
    "nodes",
    "norm_constant",
    "partner_potentials",
    "proportionality",
    "refine",
    "rodrigues",
    "series_solution",
    "three_term_next",
    "wavefunction",
]
