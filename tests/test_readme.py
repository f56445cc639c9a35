"""The README's library quick start runs as written, and its commented claims
hold, so a signature change cannot leave the documented calls stale."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def run_block(source: str, namespace: dict) -> list:
    """Execute ``source`` in ``namespace``, one statement at a time, and
    return the values of its bare expression statements in order."""
    values = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), namespace)
    return values


def test_quick_start_blocks_run_and_their_claims_hold():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    ns: dict = {}
    assert run_block(blocks[0], ns) == []
    # (e^t - z)/(1 - z) at t = 1, z = 0.3
    assert ns["gamma"].shape == (1, 1)
    assert ns["gamma"][0, 0] == pytest.approx((np.e - 0.3) / 0.7, rel=1e-9)
    assert ns["report"].k_mu == 2
    assert ns["report"].max_violation == 0.0
    assert ns["outcome"].status == "linearizable"
    # transfer map 1/(1-z): every coefficient 1 (h is the identity for f = -z)
    assert np.allclose(ns["outcome"].m.coeffs, 1.0, rtol=0.0, atol=1e-12)
    assert ns["outcome"].radius_estimate == 0.5
    # the second block continues the first: both axiom checks pass
    assert run_block(blocks[1], ns) == [True, True]
