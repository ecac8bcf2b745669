"""Elementary symmetric polynomials and the positive cones they generate.

The cone of interest is

    Gamma_m = { lam in R^n : S_1(lam) > 0, ..., S_m(lam) > 0 },

the natural ellipticity domain of the m-Hessian operator.  Conventions:
S_0 = 1 and S_k = 0 for k > n.  The reduced function S_{k;I} is
S_k evaluated with the entries listed in I removed; indices are 0-based.

All evaluators accept arrays with an arbitrary batch shape in the leading
axes and the vector entries in the last axis.  Everything here is a pure
function.  The randomized verification suite at the bottom draws its
samples in fixed blocks of ``_BLOCK``, block i from child seed i of the run
seed, and merges the block results in block order, so its report depends
only on its arguments, not on how many threads run the blocks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import InputError

__all__ = [
    "elementary_symmetric_table",
    "cone_mask",
    "table_in_cone",
    "table_margin",
    "sample_cone",
    "verify_cone_inequalities",
    "InequalityResult",
    "ConeSuiteReport",
]


def elementary_symmetric_table(lam, kmax):
    """S_0 .. S_kmax of each vector, by the Newton-triangle recurrence.

    ``lam`` has shape ``(..., n)``; the result has shape ``(..., kmax+1)``.
    The prefix dynamic program is numerically stable for n well beyond 64,
    unlike subset enumeration which is exponential.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.zeros(lam.shape[:-1] + (kmax + 1,), dtype=float)
    out[..., 0] = 1.0
    kcap = min(kmax, n)
    for i in range(n):
        x = lam[..., i]
        for k in range(min(i + 1, kcap), 0, -1):
            out[..., k] += x * out[..., k - 1]
    return out


def table_in_cone(table, m):
    """Strict Gamma_m membership, S_1 > 0, ..., S_m > 0, per entry of an
    S_0..S_m table (last axis): the one rule of the cone mask and the solver.
    Column by column: np.all over the short last axis is several times slower."""
    return reduce(np.logical_and, (table[..., k] > 0.0 for k in range(1, m + 1)))


def cone_mask(lam, m):
    """Boolean strict-membership mask for a batch of vectors."""
    return table_in_cone(elementary_symmetric_table(np.asarray(lam, dtype=float), m), m)


def table_margin(table, n, m):
    """min_k S_k / C(n,k) over k = 1..m, per entry of an S_0..S_m table
    (last axis) of n-vectors: the normalized Gamma_m margin.  It is reported,
    not a membership test: a subnormal S_k / C(n, k) can round to 0 inside
    the cone."""
    return reduce(np.minimum, (table[..., k] / math.comb(n, k) for k in range(1, m + 1)))


_SAMPLE_BOX = (-1.0, 3.0)  # bounds of every entry sample_cone draws
_SAMPLE_BATCH = 8192  # candidates per rejection round


def sample_cone(rng, n, m, count):
    """Rejection-sample ``count`` vectors from Gamma_m within [-1, 3]^n.

    The box deliberately reaches negative entries: the cone bounds are only
    nontrivial when some lambda_i < 0.
    """
    out = np.empty((count, n), dtype=float)
    got = 0
    while got < count:
        cand = rng.uniform(*_SAMPLE_BOX, size=(_SAMPLE_BATCH, n))
        keep = cand[cone_mask(cand, m)]
        take = keep[: count - got]
        out[got : got + take.shape[0]] = take
        got += take.shape[0]
    return out


# --------------------------------------------------------------------------
# Randomized verification of the pointwise cone inequalities.
# --------------------------------------------------------------------------

_BLOCK = 1 << 14  # samples per block: bounds a block's memory and fixes the report
_TOL = 1e-10  # a sample passes when its relative slack is >= -_TOL


@dataclass
class InequalityResult:
    passes: int = 0
    fails: int = 0
    worst_slack: float | None = None  # None when the check is vacuous
    witness: list[float] | None = None

    def merge(self, other):
        self.passes += other.passes
        self.fails += other.fails
        if other.worst_slack is not None and (
            self.worst_slack is None or other.worst_slack < self.worst_slack
        ):
            self.worst_slack = other.worst_slack
            self.witness = other.witness


@dataclass
class ConeSuiteReport:
    n: int
    m: int
    samples: int
    seed: int
    theta_hat: float
    theta_explicit: float
    results: dict[str, InequalityResult] = field(default_factory=dict)

    def all_pass(self):
        return all(r.fails == 0 for r in self.results.values())


def _slack(lhs, rhs):
    """Relative slack of lhs <= rhs, (rhs - lhs) / max(1, |lhs|, |rhs|): S_k
    spans many orders of magnitude, so an absolute tolerance would be
    meaningless."""
    return (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def _result(slacks, rows):
    """Result of the per-sample minimum over an iterable of slack arrays: a
    sample passes when it is >= -_TOL, and the witness is the row of the
    worst one.  With no slack array the check is vacuous and every row
    passes."""
    slack = reduce(np.minimum, slacks, np.inf)
    if np.ndim(slack) == 0:
        return InequalityResult(passes=rows.shape[0])
    worst = int(np.argmin(slack))
    fails = int(np.count_nonzero(slack < -_TOL))
    return InequalityResult(
        passes=slack.shape[0] - fails,
        fails=fails,
        worst_slack=float(slack[worst]),
        witness=[float(x) for x in rows[worst]],
    )


def _reduced_tables(lam, kmax, first=None):
    """Stack of the S_{k;i} tables for i < first (default n): shape
    (batch, first, kmax+1)."""
    first = lam.shape[-1] if first is None else first
    out = np.empty(lam.shape[:-1] + (first, kmax + 1), dtype=float)
    for i in range(first):
        rest = np.delete(lam, i, axis=-1)
        out[..., i, :] = elementary_symmetric_table(rest, kmax)
    return out


def _block_checks(n, m, count, seed, theta):
    rng = np.random.default_rng(seed)
    lam = sample_cone(rng, n, m, count)
    mu = sample_cone(rng, n, m, count)
    avec = rng.normal(size=(count, n))
    lam_gn = sample_cone(rng, n, n, count)  # Gamma_n samples for Maclaurin

    ls = np.sort(lam, axis=-1)[:, ::-1]  # paper convention: non-increasing
    table = elementary_symmetric_table(lam, m)
    table_s = elementary_symmetric_table(ls, m)
    red = _reduced_tables(lam, m)
    red_s = _reduced_tables(ls, m, m)  # the m largest entries deleted one at a time
    s_m = table[:, m]

    results: dict[str, InequalityResult] = {}

    # (1) monotonicity of S_m along the cone: S_m(lam) <= S_m(lam + mu).
    results["monotonicity"] = _result(
        [_slack(s_m, elementary_symmetric_table(lam + mu, m)[:, m])], lam
    )

    # (2) positivity of every reduced function S_{k;I} with k + |I| <= m;
    #     the tables with one index deleted are the rows of red.
    def restricted():
        for t in range(1, m):
            for subset in combinations(range(n), t):
                tab = red[:, subset[0]] if t == 1 else elementary_symmetric_table(
                    np.delete(lam, subset, axis=-1), m - t)
                yield from (_slack(0.0, tab[:, k]) for k in range(1, m - t + 1))

    results["restricted_positivity"] = _result(restricted(), lam)

    # (3) expansion identity S_k = S_{k;i} + lam_i S_{k-1;i} for all i, k <= m,
    #     plus the full cascade down to the bare product on sorted entries; an
    #     identity's slack is -|lhs - rhs| / max(1, |lhs|, |rhs|).
    slacks = []
    for k in range(1, m + 1):
        rhs = red[:, :, k] + lam * red[:, :, k - 1]
        slacks.append(-np.max(np.abs(_slack(table[:, k][:, None], rhs)), axis=-1))
    cascade = np.zeros(count)
    prefix = np.ones(count)
    for j in range(m - 1):
        rest = red_s[:, 0] if j == 0 else elementary_symmetric_table(ls[:, j + 1:], m - 1 - j)
        cascade += prefix * rest[:, m - 1 - j]
        prefix = prefix * ls[:, j]
    cascade += prefix  # final term lam_1 ... lam_{m-1}
    slacks.append(-np.abs(_slack(table_s[:, m - 1], cascade)))
    results["expansion_identity"] = _result(slacks, lam)

    # (4) S_{m-1}(lam) >= lam_1 ... lam_{m-1} on sorted entries.
    results["product_lower_bound"] = _result(
        [_slack(np.prod(ls[:, : m - 1], axis=-1), table_s[:, m - 1])], lam
    )

    # (5) |lam_{i_1} ... lam_{i_k}| <= (n-k)^k S_k for k <= m-1; the worst
    #     subset is the product of the k largest magnitudes.
    mag = np.sort(np.abs(lam), axis=-1)[:, ::-1]
    slacks = [_slack(np.prod(mag[:, :k], axis=-1), (n - k) ** k * table[:, k])
              for k in range(1, m)]
    results["product_bound"] = _result(slacks, lam)

    # (6) lam_j S_{m-1;j} >= theta S_m for j <= m.  The existence proof gives
    #     theta = 1 on the branch S_{m;j} <= 0 and 1/((n-m)^m C(n,m)) otherwise;
    #     we check the branch-wise explicit bound and record the empirical
    #     infimum theta_hat.
    sm_sorted = table_s[:, m]
    lhs = ls[:, :m] * red_s[:, :, m - 1]
    bound = np.where(red_s[:, :, m] <= 0.0, 1.0, theta)
    results["gradient_lower_bound"] = _result(
        [_slack(bound[:, j] * sm_sorted, lhs[:, j]) for j in range(m)], ls
    )
    theta_hat = float(np.min(lhs / sm_sorted[:, None]))

    # (7) weighted Cauchy-Schwarz bound:
    #     (n S_1 / S_m) sum a_i^2 S_{m-1;i} >= theta sum a_i^2.
    lhs = (n * table[:, 1] / s_m) * np.sum(avec**2 * red[:, :, m - 1], axis=-1)
    rhs = theta * np.sum(avec**2, axis=-1)
    results["weighted_cauchy_schwarz"] = _result([_slack(rhs, lhs)], lam)

    # (8) Maclaurin-type mixed inequality on Gamma_n:
    #     (S_m / C(n,m))^{1/m} >= S_n^{1/n}.
    tab_n = elementary_symmetric_table(lam_gn, n)
    lhs = tab_n[:, n] ** (1.0 / n)
    rhs = (tab_n[:, m] / math.comb(n, m)) ** (1.0 / m)
    results["maclaurin"] = _result([_slack(lhs, rhs)], lam_gn)

    return results, theta_hat


def verify_cone_inequalities(n, m, samples, seed):
    """Sample Gamma_m and check every pointwise inequality of the cone algebra.

    Returns a :class:`ConeSuiteReport`; every inequality must hold with
    relative slack >= -_TOL.  The samples come in blocks of at most
    ``_BLOCK``, block i drawn from child seed i of ``SeedSequence(seed)``;
    up to ``os.cpu_count()`` threads run the blocks and their results merge
    in block order, so the report depends only on the arguments.
    """
    if not 1 <= m < n:
        raise InputError(f"require 1 <= m < n, got n={n}, m={m}")
    if samples < 1:
        raise InputError("samples must be >= 1")
    if seed < 0:
        raise InputError(f"seed={seed} must be >= 0")
    theta = 1.0 / ((n - m) ** m * math.comb(n, m))
    blocks = -(-samples // _BLOCK)
    child_seeds = np.random.SeedSequence(seed).spawn(blocks)

    def run(i):
        count = min(_BLOCK, samples - i * _BLOCK)
        return _block_checks(n, m, count, child_seeds[i], theta)

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as ex:
        partials = list(ex.map(run, range(blocks)))

    report = ConeSuiteReport(
        n=n,
        m=m,
        samples=samples,
        seed=seed,
        theta_hat=math.inf,
        theta_explicit=theta,
    )
    for results, theta_hat in partials:  # merge in block order: deterministic
        report.theta_hat = min(report.theta_hat, theta_hat)
        for name, res in results.items():
            report.results.setdefault(name, InequalityResult()).merge(res)
    return report
