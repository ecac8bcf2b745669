"""The benchmark's contract: perfbench/workloads.py builds its inputs from
the library's public API, and perfbench/spans.py's Tracer finds the entry
points it wraps, so an API change that either depends on fails here rather
than as failed operations or zeroed layer metrics in a benchmark run."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hessianlab.experiments import manufactured_terms
from hessianlab.geometry import MetricField, TorusGrid, make_field
from hessianlab.hessop import sk_table_of_state
from hessianlab.solver import SolverConfig, solve_exponential
from oracles import reference_complex_hessian, reference_exact_sigma, reference_field

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_every_workload_builds(seed):
    workloads = _load("workloads")
    assert sorted(workloads.WORKLOADS) == [
        "conformal-n2", "envelope-n2", "mms-n3", "sweep-n2"]
    for cls in workloads.WORKLOADS.values():
        inputs = cls(seed).build()
        assert inputs["grid"].n == cls.n and inputs["grid"].N == cls.N
        for value in inputs.values():
            data = getattr(value, "data", None)
            if data is not None:
                assert np.all(np.isfinite(data)), cls.name


def test_every_workload_passes_its_checks():
    # one build/solve/check per workload at the default seed: the accuracy
    # bounds and work counts that a benchmark run checks, such as
    # conformal-n2's sup_error and sweep-n2's one solve per density, fail
    # here rather than as incorrect outputs in a benchmark run
    workloads = _load("workloads")
    failures = {}
    for cls in workloads.WORKLOADS.values():
        workload = cls(workloads.DEFAULT_SEED)
        inputs = workload.build()
        _, failed = workload.check(inputs, workload.solve(inputs))
        if failed:
            failures[cls.name] = failed
    assert failures == {}


@pytest.mark.parametrize("seed", [0, 1])
def test_manufactured_inputs_match_reference_route(seed):
    # the manufactured workloads' inputs are bit-identical to those built on
    # the whole grid from the complex Hessian, so a change in how they are
    # built cannot change what the benchmark solves
    workloads = _load("workloads")
    for cls in (workloads.MmsN3, workloads.ConformalN2):
        inputs = cls(seed).build()
        grid, n, m = inputs["grid"], cls.n, cls.m
        terms = manufactured_terms(n, 0.25) + workloads._perturbation(seed, n)
        ustar = reference_field(grid, terms)
        if cls is workloads.MmsN3:
            sigma, _ = reference_exact_sigma(grid, terms, m)
        else:
            phi = reference_field(grid, cls.metric_terms)
            form = np.exp(phi)[..., None, None] * np.eye(n)
            assert np.array_equal(inputs["omega"].form, form), cls.name
            g = reference_complex_hessian(grid, terms) + form
            sigma = sk_table_of_state(g, inputs["omega"], m)[..., m] / math.comb(n, m)
        assert np.array_equal(inputs["ustar"].data, ustar), cls.name
        assert np.array_equal(inputs["H"].data, np.log(sigma) - ustar), cls.name


def test_tracer_counts_krylov_work():
    # the GMRES and psolve spans wrap solver.gmres_raw by name and its psolve
    # keyword; the iterations they count must equal the solver's own trace
    spans = _load("spans")
    grid = TorusGrid(2, 8)
    H = make_field(grid, [((1, 0, 0, 0), 0.4, 0.0)])
    tracer = spans.Tracer()
    tracer.attach()
    try:
        _, report = solve_exponential(H, MetricField.flat(grid), 2, SolverConfig(t_steps=1))
    finally:
        tracer.detach()
    assert report.converged
    names = {span[0] for span in tracer.spans}
    assert {spans.GMRES, spans.PSOLVE} <= names
    krylov_iters = sum(r.krylov_iters for r in report.trace)
    assert krylov_iters > 0
    assert tracer.gmres_iters == krylov_iters
