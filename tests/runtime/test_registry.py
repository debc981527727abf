"""Kernel registry: completeness, dispatch and extension points."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import COOMatrix, convert
from repro.formats.base import FORMAT_IDS
from repro.runtime import registry
from repro.runtime.registry import REGISTRY, KernelRegistry, dispatch

from tests.conftest import ALL_FORMATS


class TestCompleteness:
    @pytest.mark.parametrize("fmt", sorted(FORMAT_IDS))
    def test_every_format_has_spmv_kernel(self, fmt):
        assert REGISTRY.has("spmv", fmt)

    @pytest.mark.parametrize("fmt", sorted(FORMAT_IDS))
    def test_every_format_has_spmm_kernel(self, fmt):
        assert REGISTRY.has("spmm", fmt)

    def test_operations_listing(self):
        assert set(REGISTRY.operations()) >= {"spmv", "spmm"}

    def test_formats_listing_covers_paper_enumeration(self):
        assert set(REGISTRY.formats("spmv")) == set(FORMAT_IDS)
        assert set(REGISTRY.formats("spmm")) == set(FORMAT_IDS)


class TestDispatch:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_dispatch_matches_dense(self, fmt, dense_medium, rng):
        m = convert(COOMatrix.from_dense(dense_medium), fmt)
        x = rng.standard_normal(m.ncols)
        np.testing.assert_allclose(dispatch("spmv", m, x), dense_medium @ x)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_container_spmv_goes_through_registry(self, fmt, dense_small, rng):
        """The containers and the registry must be the same implementation."""
        m = convert(COOMatrix.from_dense(dense_small), fmt)
        x = rng.standard_normal(m.ncols)
        np.testing.assert_array_equal(m.spmv(x), REGISTRY.get("spmv", fmt)(m, x))

    def test_unknown_pair_raises(self):
        with pytest.raises(FormatError):
            REGISTRY.get("spmv", "NOPE")
        with pytest.raises(FormatError):
            REGISTRY.get("transpose", "CSR")

    def test_case_insensitive_lookup(self):
        assert REGISTRY.get("SPMV", "csr") is REGISTRY.get("spmv", "CSR")


class TestExtension:
    def test_register_and_override_on_fresh_registry(self):
        reg = KernelRegistry()

        @reg.register("spmv", "CSR")
        def first(m, x):
            return np.zeros(m.nrows)

        assert reg.get("spmv", "CSR") is first

        @reg.register("spmv", "CSR")
        def second(m, x):
            return np.ones(m.nrows)

        assert reg.get("spmv", "CSR") is second
        assert reg.formats("spmv") == ("CSR",)

    def test_global_registry_unpolluted_by_fresh_instances(self):
        KernelRegistry().register("spmv", "FAKE")(lambda m, x: x)
        assert not registry.REGISTRY.has("spmv", "FAKE")
