"""Penalized computation of the largest m-subharmonic minorant of an obstacle.

For a smooth obstacle h the envelope is reached through the family

    log sigma_m(w) = (w - h) / eps + log(F_* + eps),

where F is the raw sigma_m value of h itself (a polynomial in the relative
eigenvalues, defined whether or not h is in the cone) and F_* = max(F, 0).
Each eps is one step of the solver's schedule walker with zeroth-order
coefficient 1/eps; the residual is evaluated in log form throughout, which
is what keeps the stiff small-eps regime free of exponential overflow.
Solutions are warm-started down the schedule, with geometric midpoints
inserted where a warm start is rejected.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .geometry import ScalarField
from .hessop import sigma_m
from .solver import SolverConfig, _walk_schedule, check_schedule

__all__ = ["EnvelopeReport", "msh_envelope", "contact_set"]


@dataclass
class EnvelopeReport:
    eps_path: list  # (eps, SolveReport)
    monotone_violation_sup: float
    contact_fraction: float
    complementarity_sup: float
    complementarity_path: list = field(default_factory=list)
    obstacle_excess_sup: float = 0.0  # max over eps of sup(w_eps - h)
    converged: bool = True
    wallclock: float = 0.0


def contact_set(w, h, tol):
    """Mask of points where the envelope touches the obstacle: h - w <= tol."""
    if w.grid != h.grid:
        raise InputError("fields live on different grids")
    return (h.data - w.data) <= tol


def msh_envelope(h, omega, m, eps_schedule, cfg=None):
    """Envelope of the obstacle h via the decreasing penalization schedule.

    The schedule is checked (check_schedule, then the start at 1) before
    the obstacle is evaluated.  Returns the final iterate and an
    EnvelopeReport.  A Newton failure at some eps yields a partial report
    flagged not converged, carrying the last eps that did converge.
    """
    cfg = cfg or SolverConfig()
    if h.grid != omega.grid:
        raise InputError("obstacle and metric live on different grids")
    eps_schedule = check_schedule(eps_schedule)
    if abs(eps_schedule[0] - 1.0) > 1e-12:
        raise InputError("eps schedule must start at 1")

    start = time.perf_counter()
    grid = omega.grid
    big_f = sigma_m(h, omega, m).sigma.data
    f_star = np.maximum(big_f, 0.0)
    hscale = max(1.0, float(np.max(np.abs(h.data))))

    eps_path = []
    comp_path = []
    w = None
    excess = 0.0
    violation = 0.0
    for eps, w_eps, rep in _walk_schedule(
        omega, m, eps_schedule, lambda eps: 1.0 / eps,
        lambda eps: -h.data / eps + np.log(f_star + eps), cfg,
    ):
        eps_path.append((eps, rep))
        if not rep.converged:
            if w is None:
                w = w_eps
            continue
        if w is not None:
            # w_eps increases as eps decreases; record any overshoot
            violation = max(violation, float(np.max(w - w_eps)))
        w = w_eps
        excess = max(excess, float(np.max(w - h.data)))
        sig = sigma_m(ScalarField(grid, w), omega, m).sigma.data
        comp_path.append((eps, float(np.max(np.minimum(sig, (h.data - w) / hscale)))))

    contact_tol = max(100.0 * cfg.newton_tol, eps_schedule[-1] ** 2)
    w_field = ScalarField(grid, w)
    frac = float(np.mean(contact_set(w_field, h, contact_tol)))
    report = EnvelopeReport(
        eps_path=eps_path,
        monotone_violation_sup=violation,
        contact_fraction=frac,
        complementarity_sup=comp_path[-1][1] if comp_path else math.inf,
        complementarity_path=comp_path,
        obstacle_excess_sup=excess,
        converged=all(rep.converged for _, rep in eps_path),
        wallclock=time.perf_counter() - start,
    )
    return w_field, report
