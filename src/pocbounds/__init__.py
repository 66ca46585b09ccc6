"""Bounds on probabilities of causation with multivalued treatment and effect.

Derive lower/upper bounds for conjunctions of counterfactual statements
Y_{x_j} = y_i, optionally joint with or conditioned on observed events, from
experimental P(y_i | do(x_j)) and observational P(x_j, y_i) tables. An exact
closed form over treatment arms serves as the tightness oracle, and a seeded
simulation study measures bound quality on random models.

The public names below resolve on first use (PEP 562), so `import pocbounds`
loads no submodule: each CLI process imports only the modules its subcommand
runs.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys(
        (
            "DataError",
            "Dataset",
            "Infeasible",
            "Interval",
            "ProblemSpace",
            "ShapeMismatch",
            "ValidationReport",
            "Violation",
            "ZeroGrandTotal",
            "ZeroRowTotal",
            "dataset_from_counts",
            "dataset_from_json",
            "dataset_from_probs",
            "load_dataset",
        ),
        "model",
    ),
    **dict.fromkeys(
        (
            "CanonicalQuery",
            "CounterfactualTerm",
            "IndexOutOfRange",
            "Query",
            "QuerySyntaxError",
            "UnsupportedQuery",
            "ZeroEvidenceProbability",
            "canonicalize",
            "format_query",
            "parse_query",
            "validate_indices",
        ),
        "queryir",
    ),
    **dict.fromkeys(("BoundResult", "BoundTrace", "bound"), "engine"),
    "tight_bounds": "oracle",
    **dict.fromkeys(
        (
            "SimulationRecord",
            "SimulationSummary",
            "export_csv",
            "generate_sample",
            "run_simulation",
            "write_csv",
        ),
        "simgen",
    ),
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
