"""The public names of the package: pinned, and each one importable."""

import inspect

import holomult

PUBLIC = [
    "Bivector", "CPoly", "Check", "DarbouxPair", "ExponentSolution", "Form",
    "GaussianRational", "HoloMetric", "LinearSolution", "Manifest", "ManifestError",
    "Multivector", "ParseError", "RPoly", "RealBivector", "RealMetric", "RealVectorField",
    "Report", "SplitMix64", "Trajectory", "Trivector", "VectorField", "VolumeForm",
    "adjoint_apply", "apply_field", "bivector_lm_check", "conformal_equivalence", "curl",
    "darboux_cofactor", "darboux_multiplier_search", "dim4_exactness", "divergence",
    "divergence_type_check", "emit_report", "exact_hamiltonian_check", "exactness_check",
    "first_integral_drift", "flat", "gradient", "gradient_lm_residual", "hamiltonian_field",
    "hamiltonian_lm_residual", "integrate", "interior_product", "inverse_from_frame",
    "inverse_from_symmetries", "is_first_integral", "is_inverse_multiplier",
    "is_last_multiplier", "is_poisson", "is_unimodular_with", "jacobiator", "laplacian",
    "lie_bracket", "load_manifest", "modsq", "modular_field", "pairing", "parse_expr",
    "parse_manifest", "partial_d", "pfaffian4", "poisson_bracket", "product_combine",
    "real_divergence", "real_gradient", "real_hamiltonian", "real_lm_residual",
    "realify_field", "realify_metric", "realify_poisson", "residual_sample", "run_tasks",
    "scaled_partial_d", "self_multiplier_residual", "sharp", "solve_linear", "sqrt_gaussian",
    "symmetry_coefficient", "symmetry_defect", "twisted_partial_d", "wedge",
]


def test_public_names_are_pinned():
    exported = sorted(
        name for name, value in vars(holomult).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert exported == sorted(PUBLIC)


def test_every_public_name_imports():
    for name in PUBLIC:
        exec(f"from holomult import {name}", {})
