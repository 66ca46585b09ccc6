"""Bounds on probabilities of causation with multivalued treatment and effect.

Derive lower/upper bounds for conjunctions of counterfactual statements
Y_{x_j} = y_i, optionally joint with or conditioned on observed events, from
experimental P(y_i | do(x_j)) and observational P(x_j, y_i) tables. An exact
closed form over treatment arms serves as the tightness oracle, and a seeded
simulation study measures bound quality on random models.
"""

from .model import (
    DataError,
    Dataset,
    Infeasible,
    Interval,
    ProblemSpace,
    ShapeMismatch,
    ValidationReport,
    Violation,
    ZeroGrandTotal,
    ZeroRowTotal,
    dataset_from_counts,
    dataset_from_json,
    dataset_from_probs,
    load_dataset,
)
from .queryir import (
    CanonicalQuery,
    CounterfactualTerm,
    IndexOutOfRange,
    Query,
    QuerySyntaxError,
    UnsupportedQuery,
    canonicalize,
    format_query,
    parse_query,
    validate_indices,
)
from .engine import (
    BoundResult,
    BoundTrace,
    ZeroEvidenceProbability,
    bound,
)
from .oracle import tight_bounds
from .simgen import (
    SimulationRecord,
    SimulationSummary,
    export_csv,
    generate_sample,
    run_simulation,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BoundTrace",
    "CanonicalQuery",
    "CounterfactualTerm",
    "DataError",
    "Dataset",
    "IndexOutOfRange",
    "Infeasible",
    "Interval",
    "ProblemSpace",
    "Query",
    "QuerySyntaxError",
    "ShapeMismatch",
    "SimulationRecord",
    "SimulationSummary",
    "UnsupportedQuery",
    "ValidationReport",
    "Violation",
    "ZeroEvidenceProbability",
    "ZeroGrandTotal",
    "ZeroRowTotal",
    "bound",
    "canonicalize",
    "dataset_from_counts",
    "dataset_from_json",
    "dataset_from_probs",
    "export_csv",
    "format_query",
    "generate_sample",
    "load_dataset",
    "parse_query",
    "run_simulation",
    "tight_bounds",
    "validate_indices",
    "write_csv",
]
