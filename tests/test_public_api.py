"""The package's public names: one list per module, re-exported whole."""

import importlib

import stablepairs

MODULES = ("ratfun", "equivariant", "localcurve", "series")

# the package's exports as of version 0.1.0; each must stay exported
PINNED = [
    "__version__", "Poly", "RatFun", "FactoredRatFun", "PoleOrderError",
    "poly_gcd", "specialize", "residue_at", "sum_factored", "poly_str",
    "poly_parse", "ratfun_str", "ratfun_parse", "KClass", "EqLineBundleP1",
    "SplitGeometry", "TrivialWeightError", "ZERO_WEIGHT", "E0", "E1", "E2",
    "E3", "chi_p1_line", "chi_p1_pair", "chi_x_pair", "chi_adjunction",
    "euler_factored", "euler_class", "check_square_root", "kclass_str",
    "kclass_parse", "GEOM_STANDARD", "Composition", "D1FixedPoint",
    "InvariantResult", "enumerate_fixed_points", "d1_fixed_points",
    "fixed_point_sheaf", "half_obstruction_d1", "half_obstruction_general",
    "full_obstruction_d1", "full_obstruction_general", "orientation_sign",
    "js_invariant_enumerated", "js_invariant_closed_form",
    "expected_conjecture_value", "verify_conjecture",
    "residue_vanishing_check", "is_homogeneous_of_degree", "ClassLattice",
    "GVTable", "NMinTable", "TParam", "TruncatedSeries", "WallError",
    "frac_str", "parse_frac", "log_macmahon", "macmahon", "pt_coeff_from_gv",
    "pt_series_from_gv", "js_from_gv", "wall_factor_series", "wall_classes",
    "wall_jump_check", "no_wall_predicate", "wall_candidates", "gw0_from_gv0",
    "gv0_from_gw", "gw1_assemble", "gv1_extract",
]


def test_package_list_is_the_union_of_the_module_lists():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"stablepairs.{name}").__all__
    assert stablepairs.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_listed_name_resolves():
    for name in stablepairs.__all__:
        assert hasattr(stablepairs, name), name
    for module in MODULES:
        module = importlib.import_module(f"stablepairs.{module}")
        for name in module.__all__:
            assert getattr(stablepairs, name) is getattr(module, name), name


def test_pinned_names_stay_exported():
    assert len(PINNED) == 71
    assert set(PINNED) <= set(stablepairs.__all__)


def test_star_import_of_series_binds_wall_classes():
    namespace = {}
    exec("from stablepairs.series import *", namespace)
    assert namespace["wall_classes"] is stablepairs.wall_classes
