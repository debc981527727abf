"""Public API surface tests."""

from __future__ import annotations

import pytest


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_top_level_exports_resolve():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_subpackage_exports_resolve():
    import repro.backends
    import repro.core
    import repro.datasets
    import repro.formats
    import repro.kernels
    import repro.machine
    import repro.ml
    import repro.solvers

    for module in (
        repro.formats,
        repro.backends,
        repro.machine,
        repro.datasets,
        repro.ml,
        repro.core,
        repro.solvers,
        repro.kernels,
    ):
        for name in module.__all__:
            assert getattr(module, name) is not None, (module.__name__, name)


def test_exceptions_hierarchy():
    from repro import errors

    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, Exception)
        if name != "ReproError":
            assert issubclass(exc, errors.ReproError), name


def test_validation_error_is_value_error():
    """Callers catching ValueError must see our validation failures."""
    from repro.errors import ShapeError, ValidationError

    assert issubclass(ValidationError, ValueError)
    assert issubclass(ShapeError, ValidationError)


def test_public_docstrings_present():
    """Every public module and exported class carries a docstring."""
    import inspect

    import repro

    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{name} lacks a docstring"


def test_quickstart_doctest_example():
    """The module docstring's quickstart must actually run."""
    import numpy as np

    from repro import DynamicMatrix, RunFirstTuner, make_space, tune_multiply
    from repro.datasets import stencil_2d

    A = DynamicMatrix(stencil_2d(16, points=5))
    space = make_space("cirrus", "cuda")
    result = tune_multiply(A, RunFirstTuner(), space, np.ones(A.ncols))
    assert result.report.format_name in (
        "COO", "CSR", "DIA", "ELL", "HYB", "HDC",
    )


@pytest.mark.parametrize(
    "module",
    [
        "repro.formats.base",
        "repro.machine.cost_model",
        "repro.core.pipeline",
        "repro.ml.model_selection",
        "repro.cli",
    ],
)
def test_module_docstrings(module):
    import importlib

    mod = importlib.import_module(module)
    assert mod.__doc__ and len(mod.__doc__) > 40
