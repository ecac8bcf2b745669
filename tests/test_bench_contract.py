"""The benchmark's build contract: perfbench/workloads.py builds its inputs
from the library's public API, so an API change it depends on fails here
rather than as failed operations in a benchmark run.  No solve is made."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_every_workload_builds(seed):
    workloads = _workloads()
    assert sorted(workloads.WORKLOADS) == [
        "conformal-n2", "envelope-n2", "mms-n3", "sweep-n2"]
    for cls in workloads.WORKLOADS.values():
        inputs = cls(seed).build()
        assert inputs["grid"].n == cls.n and inputs["grid"].N == cls.N
        for value in inputs.values():
            data = getattr(value, "data", None)
            if data is not None:
                assert np.all(np.isfinite(data)), cls.name
