"""Shared test fixtures."""

import numpy as np
import pytest

from cocycle_lab import series


class SvdCounter:
    """Counts ``np.linalg.svd`` calls that compute singular vectors."""

    def __init__(self, monkeypatch):
        self.full = 0
        svd = np.linalg.svd

        def counting(a, full_matrices=True, compute_uv=True, **kw):
            self.full += bool(compute_uv)
            return svd(a, full_matrices, compute_uv, **kw)

        monkeypatch.setattr(np.linalg, "svd", counting)


@pytest.fixture
def svd_counter(monkeypatch):
    return SvdCounter(monkeypatch)


class ToeplitzCounter:
    """Counts ``series._apply_toeplitz`` calls: one per series product with
    a scalar factor, one per Horner step of a composition."""

    def __init__(self, monkeypatch):
        self.calls = 0
        apply = series._apply_toeplitz

        def counting(toeplitz, other):
            self.calls += 1
            return apply(toeplitz, other)

        monkeypatch.setattr(series, "_apply_toeplitz", counting)


@pytest.fixture
def toeplitz_counter(monkeypatch):
    return ToeplitzCounter(monkeypatch)
