"""The benchmark under ``perfbench/`` reaches into the package by name: its
tracer wraps the functions listed in ``spans.PATCHES`` where the calling
module imported them, and ``run.py`` calls a few functions directly. These
tests fail when a rename would break the benchmark, instead of leaving the
failure to its traced runs. They only read ``perfbench/``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


PATCHES = _load_spans().PATCHES


@pytest.mark.parametrize(
    "modname,attr", [(p[0], p[1]) for p in PATCHES], ids=[f"{p[0]}.{p[1]}" for p in PATCHES]
)
def test_traced_name_resolves(modname, attr):
    # the same walk as Tracer.install
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize(
    "modname,attr",
    [("deqpocs.harness", "worker_count"), ("deqpocs.training", "certified_lipschitz")],
)
def test_function_called_by_run_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))
