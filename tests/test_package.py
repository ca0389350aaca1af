"""The names the `owssl` package exports, which load their modules on first use."""

import importlib
import subprocess
import sys

import pytest

import owssl

# the package's public names, in the order of its layers
EXPORTED = [
    "ClassPrior", "LabeledBlock", "PartitionSpec", "ProbMatrix", "Rng", "softmax",
    "Assignment", "SinkhornConfig", "marginal_error", "residual_row_marginals",
    "solve_conditional", "solve_unconditional",
    "PseudoBatch", "ThresholdState", "make_pseudo_batch", "thresholds", "update_state",
    "clustering_loss", "confidence_loss", "supervised_loss",
    "EcsReport", "PopulationSpec", "chi_square_statistic", "ecs_con_closed", "ecs_uncon_closed",
    "estimator_con", "estimator_uncon", "monte_carlo_ecs", "ecs_ordering_condition",
    "clustering_report", "estimate_num_classes", "hungarian", "kmeans", "manhattan_bias",
    "HyperParams", "LogitQueue", "RunLog", "SyntheticConfig", "SyntheticDataset", "ToyModel",
    "estimate_prior_adaptive", "generate_dataset", "train",
]
LAYERS = ["core", "sinkhorn", "threshold", "objectives", "theory", "evaluation", "harness"]


def test_all_lists_the_exported_names():
    assert owssl.__all__ == EXPORTED
    assert owssl.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTED)
def test_name_is_the_object_of_its_defining_module(name):
    obj = getattr(owssl, name)
    assert obj.__module__.split(".")[0] == "owssl" and obj.__module__ != "owssl"
    assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_star_import_binds_every_name():
    script = (
        "ns = {}\n"
        "exec('from owssl import *', ns)\n"
        "print(sorted(k for k in ns if k != '__builtins__'))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(sorted(EXPORTED))


def test_layer_modules_resolve_as_attributes():
    assert owssl.harness.train is owssl.train
    for layer in LAYERS:
        assert getattr(owssl, layer) is importlib.import_module(f"owssl.{layer}")


def test_dir_lists_the_names_and_layers():
    assert set(EXPORTED + LAYERS + ["__version__"]) <= set(dir(owssl))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'owssl' has no attribute 'no_such_name'"):
        owssl.no_such_name
    assert not hasattr(owssl, "softmax_")


def test_name_follows_its_module_binding(monkeypatch):
    original = owssl.solve_conditional
    monkeypatch.setattr(owssl.sinkhorn, "solve_conditional", len)
    assert owssl.solve_conditional is len
    monkeypatch.undo()
    assert owssl.solve_conditional is original is owssl.sinkhorn.solve_conditional
