"""Exactly solvable structures of the deformed quantum nonlinear oscillator.

The package provides the deformed Hermite polynomial family (three
independent exact constructions), closed-form spectra for both signs of
the deformation, orthogonality under the invariant measure, the
factorization/shape-invariance ladder, an independent finite-difference
eigensolver, and the classical amplitude-frequency law, together with a
command-line tool (``lambda-osc``) that exports tables and runs the
cross-validation suite.
"""

import importlib

# every public name, by the module that defines it; each module is
# imported on first access (PEP 562), so ``import lambda_osc`` loads none
# of them and a command pays only for the modules it runs
_SOURCES = {
    "classical": ("ClassicalState", "OrbitParams", "measure_period"),
    "exact": ("LamPoly", "LamRatio"),
    "factorization": (
        "apply",
        "build_state",
        "commutator_closed_form",
        "conjugation_residual",
        "partner_potentials",
    ),
    "hermite": (
        "derivative_relation_check",
        "generating_coeffs",
        "leading_coefficient",
        "proportionality",
        "rodrigues",
        "series_solution",
        "three_term_next",
    ),
    "params": ("DeformationParam", "PhysicalParams", "classify"),
    "polynomials": ("LadderFunction", "LambdaPoly"),
    "quadrature": ("integrate_measure",),
    "spectrum": (
        "EnergyLevel",
        "SpectrumTable",
        "bound_count",
        "energies",
        "energy",
        "ladder_energies",
    ),
    "sturm_liouville": ("SLDiscretization", "assemble", "eigenvalues", "refine"),
    "wavefunctions": (
        "WaveFunction",
        "envelope",
        "gram_matrix",
        "mu_inner",
        "nodes",
        "norm_constant",
        "wavefunction",
    ),
}
_MODULE_OF = {name: mod for mod, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
