"""Reusable experiment drivers: manufactured solutions, random data, studies.

The manufactured-solution route: pick a band-limited u*, write its exact
continuum complex Hessian term-by-term straight into the real Hermitian
layout the solver's kernels share (geometry.analytic_hessian_layout, each
term on the sub-grid of the axes it varies along), evaluate the exact
sigma_m pointwise from the S_k table of that layout, and set
H := log sigma_m(u*) - u*.  The discrete solve then has to recover
u* up to the O(h^2) stencil truncation, which is what the convergence-order
studies measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import MetricField, ScalarField, TorusGrid, analytic_hessian_layout, make_field
from .hessop import sk_table_of_state
from .solver import solve_exponential
from .symfunc import table_margin

__all__ = [
    "manufactured_terms",
    "exact_sigma",
    "manufactured_problem",
    "MmsRow",
    "mms_study",
    "random_bandlimited_terms",
    "default_density_terms",
    "default_direction_terms",
]


def manufactured_terms(n, amplitude):
    """A fixed band-limited recipe with mixed-axis terms (off-diagonal Hessian)."""
    a = amplitude
    if n == 2:
        return [
            ((1, 0, 0, 0), a, 0.0),
            ((0, 1, 0, 0), 0.0, 0.6 * a),
            ((0, 0, 1, 1), 0.5 * a, 0.0),
            ((1, 0, -1, 0), 0.0, 0.4 * a),
        ]
    if n == 3:
        return [
            ((1, 0, 0, 0, 0, 0), a, 0.0),
            ((0, 0, 0, 1, 0, 0), 0.0, 0.6 * a),
            ((0, 1, 0, 0, 1, 0), 0.5 * a, 0.0),
            ((0, 0, 1, 0, 0, -1), 0.0, 0.4 * a),
        ]
    raise InputError(f"no manufactured recipe for n={n}")


def exact_sigma(grid, terms, m):
    """Exact continuum sigma_m of the trig polynomial, sampled on the grid.

    Returns (sigma array, cone margin of the exact eigenvalues).  The
    flat metric's I is added on the diagonal of the Hermitian layout.
    """
    n = grid.n
    g = analytic_hessian_layout(grid, terms)
    for j in range(n):
        g[j, j] += 1.0
    table = sk_table_of_state(g, MetricField.flat(grid), m)
    margin = float(np.min(table_margin(table, n, m)))
    return table[..., m] / math.comb(n, m), margin


_MARGIN_FLOOR = 0.05  # least exact cone margin manufactured_problem accepts


def manufactured_problem(grid, m, amplitude):
    """(u*, H, omega) with H := log sigma_m(u*) - u* from the exact Hessian."""
    terms = manufactured_terms(grid.n, amplitude)
    ustar = make_field(grid, terms)
    sigma, margin = exact_sigma(grid, terms, m)
    if margin < _MARGIN_FLOOR:
        raise InputError(
            f"amplitude {amplitude} leaves exact cone margin {margin:.3f} "
            f"below the {_MARGIN_FLOOR} guard"
        )
    H = ScalarField(grid, np.log(sigma) - ustar.data)
    return ustar, H, MetricField.flat(grid)


@dataclass
class MmsRow:
    N: int
    sup_error: float
    final_residual: float
    newton_iterations: int
    converged: bool
    wallclock: float
    resolution_estimate: float | None  # the solve's two-grid estimate of sup_error


def mms_study(n, m, N_list, amplitude=0.25, cfg=None):
    """Manufactured-solution errors across grids, plus observed orders.

    Returns (rows, orders) where orders[i] = log2(e_i / e_{i+1}) between
    consecutive grid refinements.  Every grid is solved with ``cfg``, which
    solve_exponential reads (None: SolverConfig()'s defaults).
    """
    if not N_list:
        raise InputError("N list is empty")
    rows = []
    for N in N_list:
        grid = TorusGrid(n, N)
        ustar, H, omega = manufactured_problem(grid, m, amplitude)
        u, report = solve_exponential(H, omega, m, cfg)
        err = float(np.max(np.abs(u.data - ustar.data)))
        rows.append(
            MmsRow(
                N=N,
                sup_error=err,
                final_residual=report.t_path[-1][2] if report.t_path else math.inf,
                newton_iterations=report.newton_steps,
                converged=report.converged,
                wallclock=report.wallclock,
                resolution_estimate=report.resolution_estimate,
            )
        )
    orders = [
        math.log2(a.sup_error / b.sup_error) if b.sup_error > 0 else math.inf
        for a, b in zip(rows, rows[1:])
    ]
    return rows, orders


def random_bandlimited_terms(rng, n, count=5, amplitude=0.4):
    """Random trigonometric data, each frequency in {-1, 0, 1}, damped by 1/(1+|k|^2)."""
    terms = []
    axes = 2 * n
    for _ in range(count):
        while True:
            kvec = tuple(int(k) for k in rng.integers(-1, 2, size=axes))
            if any(kvec):
                break
        damp = 1.0 / (1.0 + sum(k * k for k in kvec))
        terms.append((kvec, float(rng.normal(0.0, amplitude * damp)),
                      float(rng.normal(0.0, amplitude * damp))))
    return terms


def default_density_terms(n):
    """A strictly positive density: 1 + mild oscillation."""
    zero = (0,) * (2 * n)
    if n == 2:
        return [(zero, 1.0, 0.0), ((1, 0, 0, 0), 0.3, 0.0), ((0, 0, 0, 1), 0.0, 0.2)]
    return [(zero, 1.0, 0.0), ((1, 0, 0, 0, 0, 0), 0.3, 0.0),
            ((0, 0, 0, 0, 1, 0), 0.0, 0.2)]


def default_direction_terms(n):
    if n == 2:
        return [((1, 0, 1, 0), 1.0, 0.0)]
    return [((1, 0, 0, 1, 0, 0), 1.0, 0.0)]
