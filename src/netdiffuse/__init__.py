"""Graph diffusion engines and a reproduction harness.

A strong-tie cascade driven by common-neighborhood scoring, plus
independent-cascade and SI baselines, evaluated per iteration on the
induced subgraph of the active set.
"""
from .errors import (
    ConfigError,
    EdgeListParseError,
    EmptyInputError,
    GraphError,
    InactiveNodeError,
    MissingDatasetError,
    MissingSeedError,
    NotAnEdgeError,
    UnknownNodeError,
)
from .graph import (
    Graph,
    average_degree,
    graph_from_edges,
    graph_from_text,
    induced_subgraph,
    largest_connected_component,
    load_edge_list,
    load_edge_list_path,
    serialize_edge_list,
)
from .ties import (
    TieStrengthTable,
    build_tie_strength_table,
    contributors,
)
from .models import (
    DiffusionTrace,
    ModelParams,
    cns_activate,
    run_cns,
    run_ic,
    run_si,
)
from .metrics import IterationMetrics, evaluate_trace
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    ModelResult,
    reproduce_paper,
    run_experiment,
)

__version__ = "0.1.0"
