"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Criteria interlock: the n=3 run is judged against the
order-2 fit of the n=2 study, so the studies run once in module fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from hessianlab.cli import main as cli_main
from hessianlab.envelope import msh_envelope
from hessianlab.experiments import (
    exact_sigma,
    manufactured_terms,
    mms_study,
)
from hessianlab.geometry import MetricField, ScalarField, TorusGrid, make_field
from hessianlab.hessop import mixed_product, sigma_m
from hessianlab.inequalities import check_max_principle, stability_sweep
from hessianlab.solver import SolverConfig, solve_exponential, solve_normalized
from hessianlab.symfunc import verify_cone_inequalities

EPS_FULL = [1.0, 0.3, 0.1, 0.03, 0.01]


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def mms_n2():
    out = {}
    for m in (1, 2):
        rows, orders = mms_study(2, m, [8, 16, 32], amplitude=0.25,
                                 cfg=SolverConfig(t_steps=1))
        out[m] = (rows, orders)
    return out


def test_criterion_1_cone_suite():
    pairs = [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (6, 3)]
    start = time.perf_counter()
    worst = []
    ok = True
    for n, m in pairs:
        rep = verify_cone_inequalities(n, m, 100000, seed=7)
        ok = ok and rep.all_pass()
        worst.append(min(r.worst_slack for r in rep.results.values()
                         if r.worst_slack is not None))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(1, ok,
            f"6 cone suites x 1e5 samples, zero violations, "
            f"worst slack {min(worst):.2e}, {elapsed:.1f}s (< 120s)")


def test_criterion_2_operator_oracle():
    # (a) sigma_1 cosine against the symbolic oracle
    grid = TorusGrid(2, 16)
    omega = MetricField.flat(grid)
    a = 0.5
    u = make_field(grid, [((1, 0, 0, 0), a, 0.0)])
    got = sigma_m(u, omega, 1).sigma.data
    pred = 1.0 - (a / (4 * grid.n)) * np.cos(grid.axis_coordinate(0)) * np.ones(grid.shape)
    err_sigma = float(np.max(np.abs(got - pred)))
    ok_sigma = err_sigma <= 0.5 * grid.h**2

    # (b) mixed products against the permanent-style expansion
    rng = np.random.default_rng(2024)
    eye = np.eye(3)
    worst = 0.0
    for _ in range(1000):
        d1, d2 = rng.normal(size=3), rng.normal(size=3)
        val = mixed_product([np.diag(d1).astype(complex),
                             np.diag(d2).astype(complex)], eye, 2)
        want = sum(d1[i] * d2[j] for i in range(3) for j in range(3) if i != j) / 6.0
        worst = max(worst, abs(val - want))
    ok_mixed = worst <= 1e-10
    _report(2, ok_sigma and ok_mixed,
            f"sigma oracle err {err_sigma:.2e} <= {0.5*grid.h**2:.2e}; "
            f"1e3 mixed-product triples worst err {worst:.2e} <= 1e-10")


def test_criterion_3_mms_n2(mms_n2):
    ok = True
    details = []
    for m in (1, 2):
        rows, orders = mms_n2[m]
        ok = ok and all(r.converged for r in rows)
        ok = ok and all(r.final_residual <= 1e-9 for r in rows)
        ok = ok and all(r.wallclock < 60.0 for r in rows)
        ok = ok and all(o >= 1.8 for o in orders)
        details.append(f"m={m}: orders {', '.join(f'{o:.2f}' for o in orders)}, "
                       f"max wall {max(r.wallclock for r in rows):.1f}s")
    _report(3, ok, "n=2 N in {8,16,32}; " + "; ".join(details))


def test_criterion_4_mms_n3(mms_n2):
    start = time.perf_counter()
    rows, _ = mms_study(3, 2, [8], amplitude=0.25, cfg=SolverConfig(t_steps=1))
    elapsed = time.perf_counter() - start
    row = rows[0]
    # order-2 fit from the n=2, m=2 trend, evaluated at the N=8 truncation
    fit_rows, _ = mms_n2[2]
    h2 = lambda N: (2 * math.pi / N) ** 2
    coeff = float(np.median([r.sup_error / h2(r.N) for r in fit_rows]))
    lo, hi = 0.1 * coeff * h2(8), 10.0 * coeff * h2(8)
    ok = (row.converged and row.final_residual <= 1e-8
          and lo <= row.sup_error <= hi and elapsed < 900.0)
    _report(4, ok,
            f"n=3 m=2 N=8: residual {row.final_residual:.1e} <= 1e-8, "
            f"sup-error {row.sup_error:.2e} in [{lo:.1e}, {hi:.1e}], "
            f"{elapsed:.0f}s (< 900s)")


def _twice_bandlimited_terms(rng, count, amplitude):
    """Random n = 2 data with random_bandlimited_terms' draws and damping, but
    frequencies up to 2 along each axis where the library draws up to 1."""
    terms = []
    for _ in range(count):
        kvec = (0,) * 4
        while not any(kvec):
            kvec = tuple(int(k) for k in rng.integers(-2, 3, size=4))
        damp = 1.0 / (1.0 + sum(k * k for k in kvec))
        terms.append((kvec, float(rng.normal(0.0, amplitude * damp)),
                      float(rng.normal(0.0, amplitude * damp))))
    return terms


def test_criterion_5_max_principle():
    grid = TorusGrid(2, 16)
    omega = MetricField.flat(grid)
    rng = np.random.default_rng(55)
    cfg = SolverConfig(t_steps=2)
    converged = 0
    principled = 0
    for _ in range(20):
        H = make_field(grid, _twice_bandlimited_terms(rng, count=5, amplitude=0.4))
        u, rep = solve_exponential(H, omega, 2, cfg)
        if rep.converged:
            converged += 1
            if check_max_principle(u, H, 1e-7).ok:
                principled += 1
    ok = converged == 20 and principled == 20
    _report(5, ok, f"20 random H: {converged}/20 converged, "
                   f"{principled}/20 satisfy the maximum principle at 1e-7")


def test_criterion_6_normalized():
    grid = TorusGrid(2, 16)
    omega = MetricField.flat(grid)
    cfg = SolverConfig(t_steps=1)
    k = 2.0
    f = ScalarField(grid, k * np.ones(grid.shape))
    u, c, rep = solve_normalized(f, omega, 1, EPS_FULL, cfg)
    ok_const = (rep.converged and abs(c - 1.0 / k) <= 1e-8
                and float(np.max(np.abs(u.data))) <= 1e-8)

    terms = manufactured_terms(2, 0.25)
    sigma, _ = exact_sigma(grid, terms, 1)
    fman = ScalarField(grid, sigma / sigma.max())
    _, _, rep2 = solve_normalized(fman, omega, 1, EPS_FULL, cfg)
    # gaps between the c estimates at eps = 0.3, 0.1, 0.03, 0.01
    tail = rep2.c_gaps[1:]
    ok_cauchy = (rep2.converged and len(tail) == 3
                 and all(b <= a for a, b in zip(tail, tail[1:])))
    _report(6, ok_const and ok_cauchy,
            f"const f: |c - 1/k| = {abs(c - 1.0/k):.1e}, sup|u| <= 1e-8; "
            f"manufactured gaps {', '.join(f'{g:.2e}' for g in tail)} shrink")


def test_criterion_7_envelope():
    grid = TorusGrid(2, 16)
    omega = MetricField.flat(grid)

    # (a) constant obstacle: closed form -eps log(1+eps) at every eps
    h0 = ScalarField.zeros(grid)
    ok_const = True
    for i in range(1, len(EPS_FULL) + 1):
        w, rep = msh_envelope(h0, omega, 1, EPS_FULL[:i])
        eps = EPS_FULL[i - 1]
        ok_const = (ok_const and rep.converged
                    and float(np.max(np.abs(w.data - h0.data)))
                    <= 1.1 * eps * math.log(2))

    # (b) cone-interior obstacle: envelope is the obstacle itself
    hb = make_field(grid, [((1, 0, 0, 0), 0.2, 0.0)])
    wb, repb = msh_envelope(hb, omega, 1, EPS_FULL)
    err_interior = float(np.max(np.abs(wb.data - hb.data)))
    ok_interior = repb.converged and err_interior <= 1e-3

    # (c) obstacle leaving the cone: monotone path, declining complementarity
    hn = make_field(grid, [((1, 0, 0, 0), 8.5, 0.0)])
    wn, repn = msh_envelope(hn, omega, 1, EPS_FULL)
    comp = [c for _, c in repn.complementarity_path]
    ok_non = (repn.converged
              and repn.monotone_violation_sup <= 1e-7
              and all(b <= a + 1e-9 for a, b in zip(comp, comp[1:]))
              and bool(np.any(hn.data - wn.data > 1e-3)))
    _report(7, ok_const and ok_interior and ok_non,
            f"constant obstacle within 1.1 eps log2; interior err "
            f"{err_interior:.1e} <= 1e-3; non-msh monotone violation "
            f"{repn.monotone_violation_sup:.1e}, complementarity "
            f"{comp[0]:.1e} -> {comp[-1]:.1e}")


def test_criterion_8_stability():
    deltas = [1e-1, 1e-2, 1e-3]

    def run(n, m, N):
        grid = TorusGrid(n, N)
        omega = MetricField.flat(grid)
        zero = (0,) * (2 * n)
        fterms = [(zero, 1.0, 0.0)]
        fterms.append(((1, 0) + (0,) * (2 * n - 2), 0.3, 0.0))
        psi_k = (1, 0, 0, 1) + (0,) * (2 * n - 4)
        f = make_field(grid, fterms)
        psi = make_field(grid, [(psi_k, 1.0, 0.0)])
        recs = stability_sweep(
            f, psi, deltas, p=2.0 * n / m, a=1.0 / (m + 2), omega=omega, m=m,
            cfg=SolverConfig(t_steps=2), eps_schedule=(1.0, 0.3, 0.1, 0.03),
        )
        ratios = [r.ratio for r in recs if r.ratio > 0]
        return max(ratios) / min(ratios), ratios

    spread3, ratios3 = run(3, 2, 8)
    spread2, ratios2 = run(2, 2, 16)
    ok = spread3 <= 100.0 and spread2 <= 100.0
    _report(8, ok,
            f"n=3 m=2 ratio spread {spread3:.1f} <= 100 "
            f"(ratios {', '.join(f'{r:.3f}' for r in ratios3)}); "
            f"m=n=2 cross-check spread {spread2:.1f} <= 100")


def test_criterion_9_determinism(tmp_path):
    jobs = [
        ["solve", "--n", "2", "--m", "2", "--N", "8",
         "--H", "cos:1,0,0,0:0.4+sin:0,1,0,0:0.3", "--t-steps", "1"],
        ["verify-cone", "--n", "3", "--m", "2", "--samples", "20000",
         "--seed", "9"],
    ]
    ok = True
    for i, job in enumerate(jobs):
        d1, d2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert cli_main(job + ["--out", str(d1)]) == 0
        assert cli_main(job + ["--out", str(d2)]) == 0
        files = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        for rel in files:
            identical = (d1 / rel).read_bytes() == (d2 / rel).read_bytes()
            ok = ok and identical
    _report(9, ok, "solve and verify-cone reruns reproduce every output "
                   "file bit-exactly")
