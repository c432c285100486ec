"""Continual learning with elastic weight consolidation in rotated spaces."""

from .continual import EvalMatrix, Hyper, Method, evaluate_matrix, finalize_task, run_sequence
from .data import (
    RawDataset,
    TaskDataset,
    TaskSequence,
    disjoint_split,
    grouped_split,
    load_mnist,
    load_mnist_idx,
    load_task_sequence,
    locate_mnist,
    save_task_sequence,
    synthetic_tasks,
)
from .fim import (
    EwcAnchor,
    FimBlock,
    FimDiagonal,
    estimate_diag_fim,
    estimate_full_fim_layer,
    ewc_penalty,
    load_fim,
    make_anchor,
    save_fim,
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
    RotationScope,
    accumulate_correlations,
    combine_network,
    rotate_conv_kernel,
    rotate_network,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "CorrelationStats",
    "EigenDecomposition",
    "EvalMatrix",
    "EwcAnchor",
    "FimBlock",
    "FimDiagonal",
    "Hyper",
    "Method",
    "Network",
    "RawDataset",
    "RotationScope",
    "TaskDataset",
    "TaskSequence",
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
    "grouped_split",
    "grow_head",
    "jacobi_eigh",
    "layout_signature",
    "load_fim",
    "load_mnist",
    "load_mnist_idx",
    "load_network",
    "load_task_sequence",
    "locate_mnist",
    "make_anchor",
    "rotate_conv_kernel",
    "rotate_network",
    "run_sequence",
    "save_fim",
    "save_network",
    "save_task_sequence",
    "softmax",
    "synthetic_tasks",
]
