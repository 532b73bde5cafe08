import lambda_osc

# the public surface: the paper's results and the oracles that check them
PUBLIC = [
    "ClassicalState", "DeformationParam", "EnergyLevel", "LadderFunction",
    "LamPoly", "LamRatio", "LambdaPoly", "OrbitParams",
    "PhysicalParams", "SLDiscretization", "SpectrumTable",
    "WaveFunction", "apply", "assemble", "bound_count", "build_state",
    "classify", "commutator_closed_form", "conjugation_residual",
    "derivative_relation_check", "eigenvalues", "energies", "energy",
    "envelope", "generating_coeffs", "gram_matrix",
    "integrate_measure", "ladder_energies", "leading_coefficient",
    "measure_period", "mu_inner", "nodes", "norm_constant",
    "partner_potentials", "proportionality", "refine", "rodrigues",
    "series_solution", "three_term_next", "wavefunction",
]


def test_all_is_the_public_surface():
    assert sorted(lambda_osc.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(lambda_osc, name), name
