"""Experiment drivers checking the solver's analytic estimates.

Norms here are grid quadrature: the flat-torus volume form has constant
density, so the discrete L^p norm is the h^{2n}-weighted power sum and the
sup norm is a plain max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import ScalarField
from .hessop import check_degree, sk_table_of_state, state_matrices
from .solver import check_density, check_schedule, solve_normalized

__all__ = [
    "MaxPrincipleReport",
    "check_max_principle",
    "StabilityRecord",
    "stability_sweep",
    "DecayReport",
    "sublevel_volume_decay",
    "lp_norm",
]


def lp_norm(u, p):
    """Discrete L^p norm with h^{2n} quadrature weights, 0 < p < inf."""
    if not 0 < p < math.inf:
        raise InputError(f"p={p} must be finite and positive")
    h = u.grid.h
    weight = h ** (2 * u.grid.n)
    return float((np.sum(np.abs(u.data) ** p) * weight) ** (1.0 / p))


@dataclass
class MaxPrincipleReport:
    ok: bool
    upper_margin: float  # (-inf H) - sup u, should be >= -tol
    lower_margin: float  # inf u - (-sup H), should be >= -tol


def check_max_principle(u, H, tol):
    """sup u <= -inf H and inf u >= -sup H, with slack tol."""
    if u.grid != H.grid:
        raise InputError("u and H live on different grids")
    upper = (-H.inf()) - u.sup()
    lower = u.inf() - (-H.sup())
    return MaxPrincipleReport(
        ok=(upper >= -tol and lower >= -tol),
        upper_margin=upper,
        lower_margin=lower,
    )


@dataclass
class StabilityRecord:
    delta: float
    p: float
    a: float
    lhs: float  # ||u - v||_inf
    rhs: float  # ||f - g||_p^a
    ratio: float
    legal: bool  # a < 1/(m+1) and p > n/m
    newton_steps: int  # accepted steps of this delta's solve (the base's for delta 0)
    cold_walk: bool  # its one-eps solve (the base's for delta 0) failed; the schedule ran cold
    converged: bool  # the base solve and this delta's solve both converged


def stability_sweep(f, psi, deltas, p, a, omega, m, cfg=None,
                    eps_schedule=(1.0, 0.3, 0.1, 0.03)):
    """Perturb f along psi and record the stability ratios.

    Each delta solves the normalized equation for g = f (1 + delta psi); the
    base solve for f is shared.  m (check_degree), the eps schedule
    (check_schedule), psi's grid, and f and every g (solve_normalized's
    positivity rule, check_density) are checked before the base solve, so
    bad input costs no Newton step.  A ratio reads only the solutions at the
    last schedule eps, so every density is solved there alone: the base f
    cold (_solve's nested start or continuity in t), each perturbed density
    by Newton from the base's raw v = u + log(c) / eps, which is O(delta)
    away (Allgower & Georg 1990).  If such a one-eps solve fails, the full
    schedule is walked cold, unless that walk is the solve that failed (a
    cold f on a one-eps schedule); the earlier eps serve only that fallback.
    One local rule routes f and every g this way.  Each record carries the
    Newton steps of its solve's accepted path (``NormalizedReport.newton_steps``;
    the base's for delta 0) and whether the cold walk ran.  If the base fails both ways, no nonzero
    delta is solved: its record has lhs = ratio = nan, its rhs, no Newton
    step, no cold walk and converged False.  Illegal exponents are allowed
    for exploratory runs and are just flagged on the records, and so are
    unconverged solves, whose ratios mean nothing.
    """
    if not (0 < p < math.inf and 0 < a < math.inf):
        raise InputError("exponents must be finite and positive")
    if not deltas:
        raise InputError("delta list is empty")
    n = omega.grid.n
    check_degree(m, n)
    legal = (a < 1.0 / (m + 1)) and (p > n / m)
    schedule = check_schedule(eps_schedule)
    eps_last = schedule[-1]
    if psi.grid != f.grid:
        raise InputError("f and psi live on different grids")
    fdata = f.data
    check_density(fdata)
    gs = [fdata * (1.0 + delta * psi.data) for delta in deltas]
    for delta, gdata in zip(deltas, gs):
        check_density(gdata, f"the perturbed density at delta={delta}")

    def solve(density, v0):  # the route rule above; v0 None solves cold
        v, c, rep = solve_normalized(density, omega, m, (eps_last,), cfg, v0=v0)
        walk = not rep.converged and (v0 is not None or len(schedule) > 1)
        if walk:
            v, c, rep = solve_normalized(density, omega, m, schedule, cfg)
        return v, c, rep, walk

    u_base, c_base, base, base_walk = solve(f, None)
    v_base = u_base.data + math.log(c_base) / eps_last
    records = []
    for delta, gdata in zip(deltas, gs):
        rhs = lp_norm(ScalarField(f.grid, fdata - gdata), p) ** a
        if delta == 0:  # g = f: v is the base solution, the ratio 0
            v, rep, walk = u_base, base, base_walk
        elif base.converged:
            v, _, rep, walk = solve(ScalarField(f.grid, gdata), v_base)
        else:  # no ratio can be read off a failed base, so nothing is solved
            v, rep, walk = None, None, False
        lhs = math.nan if v is None else float(np.max(np.abs(u_base.data - v.data)))
        records.append(StabilityRecord(
            delta=float(delta), p=p, a=a, lhs=lhs, rhs=rhs,
            ratio=lhs / rhs if rhs > 0 else 0.0 * lhs,  # nan when nothing was solved
            legal=legal, newton_steps=0 if rep is None else rep.newton_steps,
            cold_walk=walk, converged=rep is not None and rep.converged,
        ))
    return records


@dataclass
class DecayReport:
    rows: list  # (t, fraction, t * fraction)
    bounded: bool
    bound_ratio: float


_DECAY_TOL = 1e-9  # slack of sublevel_volume_decay's sup, cone and bound checks


def sublevel_volume_decay(phi, t_list, omega, m):
    """Grid-measure fraction of {phi < -t} and the t * fraction diagnostic.

    Requires sup phi = 0 and phi m-subharmonic (closed cone).  The product
    t * fraction must stay within a factor 10 of its maximum over the
    sublist t <= 1, the discrete echo of the C/t sublevel decay.  The t
    values, phi's grid and its finiteness are checked before any evaluation.
    """
    t_list = sorted(float(t) for t in t_list)
    if not t_list or not all(0 < t < math.inf for t in t_list):
        raise InputError("t values must be finite and positive")
    if phi.grid != omega.grid:
        raise InputError("phi and omega live on different grids")
    if not np.all(np.isfinite(phi.data)):
        raise InputError("phi values must be finite")
    if abs(phi.sup()) > _DECAY_TOL:
        raise InputError("phi must be normalized to sup phi = 0")
    table = sk_table_of_state(state_matrices(phi.data, omega), omega, m)
    if float(np.min(table[..., 1 : m + 1])) < -_DECAY_TOL:
        raise InputError("phi is not (omega,m)-subharmonic on the grid")
    rows = []
    for t in t_list:
        frac = float(np.mean(phi.data < -t))
        rows.append((t, frac, t * frac))
    reference = max(tf for t, _, tf in rows if t <= 1.0) if any(
        t <= 1.0 for t, _, _ in rows
    ) else max(tf for _, _, tf in rows)
    worst = max(tf for _, _, tf in rows)
    bounded = worst <= 10.0 * reference + _DECAY_TOL
    ratio = worst / reference if reference > 0 else (0.0 if worst == 0 else math.inf)
    return DecayReport(rows=rows, bounded=bounded, bound_ratio=ratio)

