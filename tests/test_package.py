import types

import wlra

# What the package exports: the six solvers, their configs, what their
# input is built from, and the error classes. Layer functions are imported
# from their submodules.
EXPORTS = {
    "ArmijoParams", "Budget", "SolverConfig", "PolicyKind", "make_policy",
    "confinement_manifold", "confinement_euclidean",
    "fill_missing_column_mean", "truncated_svd_init",
    "sgd_manifold", "sgd_euclidean", "sgd_pw", "als_manifold", "als_euclidean", "als_pw",
    "ProblemData", "ProductPoint", "FactorPair", "IterTrace", "cost_unregularized",
    "WlraError", "BacktrackLimit", "DuplicateEntry", "EmptySupport", "IndexOutOfBounds",
    "InitNotConfined", "InvalidDimensions", "LambdaOutOfRange", "MismatchedData",
    "NonPositiveWeight", "ParseError", "RankDeficient", "ShapeMismatch",
}


def test_public_names_are_the_exports():
    public = {
        name
        for name, value in vars(wlra).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS

