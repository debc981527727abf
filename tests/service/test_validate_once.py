"""A request's operand is validated once, in the front end that admits it.

``TuningService`` checks each operand with ``validate_operand`` in the
caller's thread.  ``WorkloadEngine.execute`` then makes only the O(1)
shape check against the container it serves, which under a warm key is
the key's cached container, not the matrix passed with the request.
The public ``repro.runtime.batch.matvec`` still validates what it is
handed and raises the same typed errors.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.backends import make_space
from repro.errors import ShapeError, ValidationError
from repro.formats import COOMatrix
from repro.runtime import batch
from repro.runtime.engine import WorkloadEngine
from repro.service import TuningService


@pytest.fixture
def matrix():
    n = 30
    dense = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1)
    return COOMatrix.from_dense(dense)


@pytest.fixture
def validations(monkeypatch):
    """Count every ``validate_operand`` call, whichever module makes it."""
    calls = []
    original = batch.validate_operand

    def counting(matrix, x):
        calls.append(np.shape(x))
        return original(matrix, x)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "validate_operand", None) is original
        ):
            monkeypatch.setattr(module, "validate_operand", counting)
    return calls


def test_warm_blocking_spmv_validates_once(matrix, validations):
    x = np.arange(matrix.ncols, dtype=np.float64)
    with TuningService(make_space("cirrus", "serial")) as service:
        session = service.session("s")
        session.spmv(matrix, x, key="m")  # cold: builds the warm chain
        with service._host.engines.lease("m") as engine:
            assert engine.has_chain("m")
        del validations[:]
        result = session.spmv(matrix, x, key="m")
    assert validations == [x.shape]
    np.testing.assert_allclose(result.y, matrix.to_dense() @ x)


def _tridiagonal(n):
    dense = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1)
    return COOMatrix.from_dense(dense)


def test_engine_checks_against_served_container():
    wide, narrow = _tridiagonal(40), _tridiagonal(30)
    engine = WorkloadEngine(make_space("cirrus", "serial"))
    engine.execute(wide, np.ones(40), key="m")
    assert engine.has_chain("m")
    # the warm key serves its cached 40-column container, whatever
    # matrix comes with the request: a length-30 operand must not reach
    # a kernel that indexes x by the container's column indices
    for operand in (np.ones(30), np.ones((30, 2))):
        with pytest.raises(ShapeError):
            engine.execute(narrow, operand, key="m")
    assert engine.requests_served == 1


def test_warm_spmv_checks_against_served_container():
    wide, narrow = _tridiagonal(40), _tridiagonal(30)
    with TuningService(make_space("cirrus", "serial")) as service:
        session = service.session("s")
        session.spmv(wide, np.ones(40), key="m")
        with service._host.engines.lease("m") as engine:
            assert engine.has_chain("m")
        with pytest.raises(ShapeError):
            session.spmv(narrow, np.ones(30), key="m")
        # the key still serves its own matrix
        x = np.arange(40, dtype=np.float64)
        result = session.spmv(wide, x, key="m")
    np.testing.assert_allclose(result.y, wide.to_dense() @ x)


@pytest.mark.parametrize(
    "operand, error",
    [
        (np.ones(29), ShapeError),
        (np.ones((31, 2)), ShapeError),
        (np.ones((30, 2, 1)), ValidationError),
    ],
    ids=["vector-length", "block-rows", "rank-3"],
)
def test_bad_operand_raises_typed(matrix, operand, error):
    with pytest.raises(error):
        batch.matvec(matrix, operand)
    engine = WorkloadEngine(make_space("cirrus", "serial"))
    with pytest.raises(error):
        engine.execute(matrix, operand, key="m")
    assert engine.requests_served == 0
    with TuningService(make_space("cirrus", "serial")) as service:
        with pytest.raises(error):
            service.session().spmv(matrix, operand, key="m")
