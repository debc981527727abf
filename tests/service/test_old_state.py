"""State written before the kernel tier was one loads and serves.

Earlier releases stamped a kernel-backend name into two kinds of
persisted state: a disk-tier entry's decision metadata (``"backend"``)
and an Oracle model's metadata (``"kernel_backend"``), either of which
could say ``"native"``.  Both are built here the way those releases
wrote them; both must still load and serve, each result naming the
kernel that ran it.
"""

from __future__ import annotations

import os

import numpy as np

from repro.backends import make_space
from repro.core import OracleModel, RandomForestTuner, save_model
from repro.formats import COOMatrix, convert
from repro.machine.stats import MatrixStats
from repro.ml import RandomForestClassifier
from repro.runtime.batch import SERVING
from repro.service import TuningService
from repro.storage.persist import save_container
from repro.storage.tier import _key_dir


def _matrix():
    n = 50
    dense = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1)
    dense += np.diag(np.full(n - 1, -1.0), -1)
    return COOMatrix.from_dense(dense)


def test_tier_entry_decided_for_native_serves(tmp_path):
    matrix = _matrix()
    csr = convert(matrix, "CSR")
    root = tmp_path / "tier"
    # the layout of a tier that kept one directory per key, with the
    # decision metadata its engines stored
    save_container(
        csr,
        os.path.join(root, "entries", _key_dir("m")),
        extra={
            "format": "CSR",
            "backend": "native",
            "stats": MatrixStats.from_matrix(csr).to_dict(),
            "tier_key": "m",
            "tier_stored_at": 1.0,
        },
    )
    x = np.random.default_rng(3).standard_normal(matrix.ncols)
    with TuningService(
        make_space("cirrus", "serial"), storage_dir=str(root)
    ) as service:
        result = service.spmv(matrix, x, key="m")
        storage = service.stats()["storage"]
    assert storage["promotions"] == 1
    assert result.format == "CSR"
    assert result.backend == SERVING["CSR"][1]
    np.testing.assert_allclose(result.y, matrix.to_dense() @ x)


def test_model_stamped_with_native_serves(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((120, 10))
    y = (X[:, 0] > 0).astype(int)
    model = OracleModel.from_estimator(
        RandomForestClassifier(n_estimators=3, max_depth=4, seed=1).fit(X, y),
        system="cirrus",
        backend="serial",
        metadata={"kernel_backend": "native"},
    )
    path = str(tmp_path / "rf.model")
    save_model(path, model)
    tuner = RandomForestTuner(path)
    assert tuner.model.metadata == {"kernel_backend": "native"}
    matrix = _matrix()
    x = rng.standard_normal(matrix.ncols)
    with TuningService(make_space("cirrus", "serial"), tuner) as service:
        result = service.spmv(matrix, x, key="m")
    assert result.backend == SERVING[result.format][1]
    np.testing.assert_allclose(result.y, matrix.to_dense() @ x)
