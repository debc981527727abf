"""The benchmark harness's contract with the package.

``perfbench/`` is the repository's benchmark gate and is never edited
alongside the code it measures, so a deletion in ``src/`` must not
silently break it.  Three checks, all read-only over ``perfbench/``:

* every ``repro`` import in ``perfbench/*.py`` resolves (parsed with
  :mod:`ast`, so nothing in the harness runs);
* ``perfbench/tracer.py``'s ``Tracer().install()`` followed by
  ``uninstall()`` round-trips, which proves every attribute it patches
  still exists and is restored;
* with the tracer installed, the engine's kernel calls go through the
  names it wraps, so ``kernel.spmv``/``kernel.spmm`` spans get recorded.
"""

from __future__ import annotations

import ast
import glob
import importlib
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
SOURCES = sorted(glob.glob(os.path.join(PERFBENCH, "*.py")))


def repro_imports(path):
    """``(module, name)`` for every repro import in *path*.

    ``name`` is ``None`` for a plain ``import repro.x``.
    """
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module or ""
        ).split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def test_harness_sources_found():
    names = {os.path.basename(p) for p in SOURCES}
    assert {"run.py", "tracer.py", "workloads.py"} <= names


@pytest.mark.parametrize(
    "path", SOURCES, ids=[os.path.basename(p) for p in SOURCES]
)
def test_every_repro_import_resolves(path):
    missing = []
    for module, name in repro_imports(path):
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"from {module} import {name}")
    assert not missing, f"{os.path.basename(path)}: {missing}"


def test_tracer_install_uninstall_round_trips(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py")
    )
    tracer_mod = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer_mod)
    assert spec.loader is not None
    spec.loader.exec_module(tracer_mod)

    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{attr} not patched"
    finally:
        # never leave a half-installed tracer behind for later tests
        tracer.uninstall()
    assert patched, "install() patched nothing"
    for owner, attr, original in patched:
        current = owner.__dict__.get(attr, getattr(owner, attr))
        assert current is original, f"{owner!r}.{attr} not restored"


def test_engine_kernel_calls_are_traced(monkeypatch):
    import numpy as np

    from repro.backends import make_space
    from repro.datasets.generators import banded
    from repro.runtime.engine import WorkloadEngine

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py")
    )
    tracer_mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_mod)
    spec.loader.exec_module(tracer_mod)

    matrix = banded(64, half_bandwidth=2, seed=0)
    engine = WorkloadEngine(make_space("cirrus", "serial"))
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        engine.execute(matrix, np.ones(matrix.ncols))
        engine.execute(matrix, np.ones((matrix.ncols, 3)))
    finally:
        tracer.uninstall()
    kernel_ops = [s.op for s in tracer.spans if s.layer == "kernel"]
    assert kernel_ops == ["spmv", "spmm"]
