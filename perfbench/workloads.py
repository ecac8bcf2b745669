"""The four benchmark workloads: input synthesis, the timed call, the checks.

Seed 0 reproduces the acceptance-gate configurations exactly.  Any other
seed adds a small ``random_bandlimited_terms`` perturbation to the
workload's data (the manufactured solution, the obstacle or the density),
small enough that Newton and Krylov counts, and so the timings, stay within
a step or so of seed 0's.

Each workload's ``build()`` returns fresh inputs and ``solve(inputs)`` makes
the one timed library call; ``check(inputs, outcome)`` returns the
workload's accuracy figure and the list of failed-check messages, and
``layer_counts(outcome)`` gives the counts only the outcome knows.
"""

from __future__ import annotations

import math

import numpy as np

from hessianlab import inequalities
from hessianlab.envelope import msh_envelope
from hessianlab.experiments import (
    exact_sigma,
    manufactured_terms,
    random_bandlimited_terms,
)
from hessianlab.geometry import (
    MetricField,
    ScalarField,
    TorusGrid,
    analytic_complex_hessian,
    make_field,
)
from hessianlab.hessop import sk_table_of_state
from hessianlab.solver import SolverConfig, solve_exponential

DEFAULT_SEED = 0
PERTURBATION = 0.01  # amplitude handed to random_bandlimited_terms

EPS_ENVELOPE = (1.0, 0.3, 0.1, 0.03, 0.01)
EPS_SWEEP = (1.0, 0.3, 0.1, 0.03)
SWEEP_DELTAS = (0.1, 0.01, 0.001)


def _perturbation(seed, n, x1_only=False):
    """Seed-dependent perturbation terms; none for the default seed.

    Data that depends on x_1 alone is perturbed along x_1 alone (the other
    frequencies are dropped): it keeps the symmetry it has at the default
    seed, and with it the diagonal Hessians, eigensolve cost and Krylov counts.
    """
    if seed == DEFAULT_SEED:
        return []
    rng = np.random.default_rng(seed)
    terms = random_bandlimited_terms(rng, n, count=3, amplitude=PERTURBATION)
    if x1_only:
        terms = [((k[0],) + (0,) * (2 * n - 1), c, s) for k, c, s in terms]
    return terms


class Workload:
    """One workload at one seed; subclasses build inputs and make the call."""

    name = ""
    accuracy = ""  # name of the accuracy figure check() returns

    def __init__(self, seed):
        self.seed = seed

    def reports(self, outcome):
        """The SolveReports behind the outcome, for the Newton step count."""
        return [outcome[1]]

    def layer_counts(self, outcome):
        return {}


class _Manufactured(Workload):
    """solve_exponential on data manufactured from a known u*."""

    accuracy = "sup_error"
    cfg = SolverConfig(t_steps=1)
    ref_error = 0.0  # sup|u - u*| at seed 0 on the benchmark's parent commit

    def solve(self, inputs):
        return solve_exponential(inputs["H"], inputs["omega"], self.m, self.cfg)

    def check(self, inputs, outcome):
        u, report = outcome
        err = float(np.max(np.abs(u.data - inputs["ustar"].data)))
        failures = []
        if not report.converged:
            failures.append(f"not converged ({report.failure})")
        elif report.t_path[-1][2] > self.cfg.newton_tol:
            failures.append(f"final residual {report.t_path[-1][2]:.3e} "
                            f"above newton_tol {self.cfg.newton_tol:.1e}")
        if not err <= 2.0 * self.ref_error:
            failures.append(f"sup_error {err:.3e} above 2 x {self.ref_error:.1e}")
        return err, failures


class MmsN3(_Manufactured):
    """n=3, m=2, N=8 manufactured problem on the flat metric (criterion 4)."""

    name = "mms-n3"
    n, m, N = 3, 2, 8
    ref_error = 6.2e-3

    def build(self):
        # manufactured_problem(grid, 2, 0.25) at the default seed
        grid = TorusGrid(self.n, self.N)
        terms = manufactured_terms(self.n, 0.25) + _perturbation(self.seed, self.n)
        ustar = make_field(grid, terms)
        sigma, margin = exact_sigma(grid, terms, self.m)
        if margin < 0.05:  # the guard manufactured_problem applies
            raise ValueError(f"perturbed u* leaves cone margin {margin:.3f}")
        H = ScalarField(grid, np.log(sigma) - ustar.data)
        return {"grid": grid, "ustar": ustar, "H": H, "omega": MetricField.flat(grid)}


class ConformalN2(_Manufactured):
    """n=2, m=2, N=24 manufactured problem relative to a conformal metric."""

    name = "conformal-n2"
    n, m, N = 2, 2, 24
    ref_error = 1.4e-3
    metric_terms = [((1, 0, 0, 0), 1.2, 0.0), ((0, 0, 1, 1), 0.0, 0.6)]

    def build(self):
        grid = TorusGrid(self.n, self.N)
        omega = MetricField.conformal(grid, np.eye(self.n), self.metric_terms)
        terms = manufactured_terms(self.n, 0.25) + _perturbation(self.seed, self.n)
        ustar = make_field(grid, terms)
        # sigma_m^omega of u* from its exact continuum Hessian
        g = analytic_complex_hessian(grid, terms) + omega.form
        table = sk_table_of_state(g, omega, self.m)
        norm = np.array([math.comb(self.n, k) for k in range(1, self.m + 1)])
        margin = float(np.min(table[..., 1 : self.m + 1] / norm))
        if margin <= 0.0:
            raise ValueError(f"u* leaves the cone relative to omega ({margin:.3f})")
        sigma = table[..., self.m] / math.comb(self.n, self.m)
        H = ScalarField(grid, np.log(sigma) - ustar.data)
        return {"grid": grid, "ustar": ustar, "H": H, "omega": omega}


class EnvelopeN2(Workload):
    """Envelope of 8.5 cos x_1, n=2, m=1, N=16 (criterion 7c)."""

    name = "envelope-n2"
    accuracy = "complementarity_sup"
    n, m, N = 2, 1, 16
    cfg = SolverConfig()

    def build(self):
        grid = TorusGrid(self.n, self.N)
        terms = [((1, 0, 0, 0), 8.5, 0.0)]
        terms += _perturbation(self.seed, self.n, x1_only=True)
        return {"grid": grid, "h": make_field(grid, terms),
                "omega": MetricField.flat(grid)}

    def solve(self, inputs):
        return msh_envelope(inputs["h"], inputs["omega"], self.m, EPS_ENVELOPE,
                            self.cfg)

    def check(self, inputs, outcome):
        w, report = outcome
        failures = []
        converged_eps = {eps for eps, rep in report.eps_path if rep.converged}
        missing = [eps for eps in EPS_ENVELOPE if eps not in converged_eps]
        if not report.converged or missing:
            failures.append(f"envelope not converged at eps {missing}")
        if not report.monotone_violation_sup <= 1e-7:
            failures.append(
                f"monotone violation {report.monotone_violation_sup:.2e} > 1e-7")
        comp = [c for _, c in report.complementarity_path]
        if not all(b <= a + 1e-9 for a, b in zip(comp, comp[1:])):
            failures.append(f"complementarity increases along the path: {comp}")
        if not bool(np.any(inputs["h"].data - w.data > 1e-3)):
            failures.append("envelope equals the obstacle everywhere")
        return report.complementarity_sup, failures

    def reports(self, outcome):
        return [rep for _, rep in outcome[1].eps_path]

    def layer_counts(self, outcome):
        eps_path = outcome[1].eps_path
        return {"eps_steps": len(eps_path),
                "midpoints": sum(1 for eps, _ in eps_path if eps not in EPS_ENVELOPE)}


class SweepN2(Workload):
    """Criterion-8 m=n=2 stability cross-check: base plus three deltas."""

    name = "sweep-n2"
    accuracy = "normalized_mismatch"  # largest sup|sigma_m(u) - c f|
    n, m, N = 2, 2, 16
    cfg = SolverConfig(t_steps=2)

    def build(self):
        grid = TorusGrid(self.n, self.N)
        fterms = [((0, 0, 0, 0), 1.0, 0.0), ((1, 0, 0, 0), 0.3, 0.0)]
        fterms += _perturbation(self.seed, self.n, x1_only=True)
        return {"grid": grid, "f": make_field(grid, fterms),
                "psi": make_field(grid, [((1, 0, 0, 1), 1.0, 0.0)]),
                "omega": MetricField.flat(grid)}

    def solve(self, inputs):
        # stability_sweep drops each solve's NormalizedReport, so capture
        # them at the module-global call site for the convergence check.
        captured = []
        inner = inequalities.solve_normalized

        def capture(*args, **kwargs):
            out = inner(*args, **kwargs)
            captured.append(out[2])
            return out

        inequalities.solve_normalized = capture
        try:
            records = inequalities.stability_sweep(
                inputs["f"], inputs["psi"], SWEEP_DELTAS, p=2.0, a=0.25,
                omega=inputs["omega"], m=self.m, cfg=self.cfg,
                eps_schedule=EPS_SWEEP,
            )
        finally:
            inequalities.solve_normalized = inner
        return records, captured

    def check(self, inputs, outcome):
        records, normalized = outcome
        failures = []
        ratios = [r.ratio for r in records if r.ratio > 0]
        spread = max(ratios) / min(ratios) if len(ratios) == len(records) else math.inf
        if not spread <= 100.0:
            failures.append(f"ratio spread {spread:.2f} > 100 (ratios {ratios})")
        expected = 1 + len(SWEEP_DELTAS)
        if len(normalized) != expected:
            failures.append(f"{len(normalized)} normalized solves, expected {expected}")
        failures += [f"normalized solve {i} not converged"
                     for i, rep in enumerate(normalized) if not rep.converged]
        return max((rep.final_mismatch for rep in normalized), default=math.inf), failures

    def reports(self, outcome):
        return [rep for norm in outcome[1] for _, rep in norm.eps_path]


WORKLOADS = {cls.name: cls for cls in (MmsN3, ConformalN2, EnvelopeN2, SweepN2)}
