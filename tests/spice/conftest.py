"""Shared fixtures of the SPICE test suite.

``device_eval_path`` parametrizes a suite over both nonlinear-device
evaluator paths — the vectorized group engine and the scalar
per-element reference — by patching the group-size rule
(:data:`repro.spice.groups.GROUP_MIN`) that every default-built
``MNASystem`` reads.  Suites that solve circuits (compiled assembly, LU
reuse, transient, AC) opt in with::

    pytestmark = pytest.mark.usefixtures("device_eval_path")

so every test in them runs on both paths without duplication.  The
grouped leg sets the rule to 1, making even the two-BJT families
exercise the vectorized math; the scalar leg sets it above any
circuit's device count.  Fork-started pool workers inherit the patch.
"""

import sys

import pytest

from repro.spice import groups


@pytest.fixture(params=[1, sys.maxsize], ids=["vectorized", "scalar"])
def device_eval_path(request, monkeypatch):
    """Run the test with every device class grouped, then with none."""
    monkeypatch.setattr(groups, "GROUP_MIN", request.param)
    return request.param
