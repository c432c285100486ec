"""Continual learning with elastic weight consolidation in rotated spaces."""

from .continual import Hyper, Method, SequenceResult, evaluate_matrix, finalize_task, run_sequence
from .data import (
    TaskDataset,
    disjoint_split,
    load_mnist,
    load_mnist_idx,
    synthetic_tasks,
)
from .fim import (
    EwcAnchor,
    FimDiagonal,
    estimate_diag_fim,
    estimate_full_fim_layer,
    ewc_penalty,
    make_anchor,
)
from .checkpoint import load_network, save_network
from .linalg import EigenDecomposition, diag_energy_ratio, jacobi_eigh
from .network import (
    Network,
    backward,
    build_network,
    forward,
    grow_head,
    layout_signature,
    softmax,
)
from .optim import AdamState, adam_step
from .rotation import (
    CorrelationStats,
    accumulate_correlations,
    combine_network,
    rotate_network,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "CorrelationStats",
    "EigenDecomposition",
    "EwcAnchor",
    "FimDiagonal",
    "Hyper",
    "Method",
    "Network",
    "SequenceResult",
    "TaskDataset",
    "accumulate_correlations",
    "adam_step",
    "backward",
    "build_network",
    "combine_network",
    "diag_energy_ratio",
    "disjoint_split",
    "estimate_diag_fim",
    "estimate_full_fim_layer",
    "evaluate_matrix",
    "ewc_penalty",
    "finalize_task",
    "forward",
    "grow_head",
    "jacobi_eigh",
    "layout_signature",
    "load_mnist",
    "load_mnist_idx",
    "load_network",
    "make_anchor",
    "rotate_network",
    "run_sequence",
    "save_network",
    "softmax",
    "synthetic_tasks",
]
