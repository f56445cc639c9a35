"""Shared test fixtures."""

import numpy as np
import pytest


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
