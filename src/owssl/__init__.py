"""Open-world semi-supervised self-labeling toolkit.

Each exported name, and each layer module, is imported on first use (PEP 562
module `__getattr__`), so `import owssl` or `import owssl.cli` loads only what
a command calls. A name is looked up in its module at every read, never
cached here, so it is always the module's current binding.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("ClassPrior", "LabeledBlock", "PartitionSpec", "ProbMatrix", "Rng", "softmax"),
    "sinkhorn": (
        "Assignment", "SinkhornConfig", "marginal_error", "residual_row_marginals",
        "solve_conditional", "solve_unconditional",
    ),
    "threshold": ("PseudoBatch", "ThresholdState", "make_pseudo_batch", "thresholds", "update_state"),
    "objectives": ("clustering_loss", "confidence_loss", "supervised_loss"),
    "theory": (
        "EcsReport", "PopulationSpec", "chi_square_statistic", "ecs_con_closed", "ecs_uncon_closed",
        "estimator_con", "estimator_uncon", "monte_carlo_ecs", "ecs_ordering_condition",
    ),
    "evaluation": ("clustering_report", "estimate_num_classes", "hungarian", "kmeans", "manhattan_bias"),
    "harness": (
        "HyperParams", "LogitQueue", "RunLog", "SyntheticConfig", "SyntheticDataset", "ToyModel",
        "estimate_prior_adaptive", "generate_dataset", "train",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
