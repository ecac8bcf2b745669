"""Experiment drivers: max principle, stability ratios, sublevel decay."""

import numpy as np
import pytest

from hessianlab.errors import InputError
from hessianlab.experiments import default_density_terms, default_direction_terms
from hessianlab.experiments import manufactured_terms
from hessianlab.geometry import (
    MetricField,
    ScalarField,
    TorusGrid,
    analytic_hessian_layout,
    complex_hessian,
    complex_hessian_layout,
    complex_of_layout,
    gradient_sup,
    make_field,
)
from hessianlab.inequalities import (
    _spectral_radius,
    check_max_principle,
    laplacian_gradient_ratio,
    lp_norm,
    stability_sweep,
    sublevel_volume_decay,
)
from hessianlab.solver import SolverConfig, solve_exponential


def flat(n=2, N=16):
    grid = TorusGrid(n, N)
    return grid, MetricField.flat(grid)


class TestCheckMaxPrinciple:
    def test_constant_pair_zero_margin(self):
        grid, _ = flat(2, 8)
        u = ScalarField(grid, -0.4 * np.ones(grid.shape))
        H = ScalarField(grid, 0.4 * np.ones(grid.shape))
        rep = check_max_principle(u, H, 1e-9)
        assert rep.ok
        assert rep.upper_margin == pytest.approx(0.0, abs=1e-12)
        assert rep.lower_margin == pytest.approx(0.0, abs=1e-12)

    def test_solver_output_passes(self):
        grid, omega = flat(2, 8)
        H = make_field(grid, [((1, 0, 0, 0), 0.5, 0.0)])
        u, rep = solve_exponential(H, omega, 1, SolverConfig(t_steps=1))
        assert rep.converged
        assert check_max_principle(u, H, 1e-7).ok

    def test_corrupted_output_fails(self):
        grid, omega = flat(2, 8)
        H = ScalarField.zeros(grid)
        u, _ = solve_exponential(H, omega, 1)
        bad = ScalarField(grid, u.data + 1.0)
        assert not check_max_principle(bad, H, 1e-7).ok

    def test_rejects_foreign_grid(self):
        # u on N=8 and H on N=16 reported ok=True from the extrema alone
        u = ScalarField.zeros(TorusGrid(2, 8))
        H = ScalarField.zeros(TorusGrid(2, 16))
        with pytest.raises(InputError, match="different grids"):
            check_max_principle(u, H, 1e-7)


class TestLaplacianGradientRatio:
    def test_zero_field(self):
        grid, _ = flat(2, 8)
        assert laplacian_gradient_ratio(ScalarField.zeros(grid)) == 0.0

    def test_cosine_eighth(self):
        grid, _ = flat(2, 16)
        u = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        got = laplacian_gradient_ratio(u)
        assert abs(got - 0.125) < 0.5 * grid.h**2

    def test_amplitude_scaling_decreases_ratio(self):
        grid, _ = flat(2, 16)
        r1 = laplacian_gradient_ratio(make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)]))
        r2 = laplacian_gradient_ratio(make_field(grid, [((1, 0, 0, 0), 2.0, 0.0)]))
        assert r2 < r1

    @staticmethod
    def assert_radius_is_eigvalsh(x):
        want = np.max(np.abs(np.linalg.eigvalsh(complex_of_layout(x))), axis=-1)
        got = _spectral_radius(x)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_radius_matches_eigvalsh_on_random_layouts(self, n):
        # scales 1e-6 .. 1e6, with multiples of the identity (a repeated
        # eigenvalue) and zero matrices among them
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, n, 3000)) * 10.0 ** rng.integers(-6, 7, 3000)
        x[:, :, :100] = np.eye(n)[:, :, None] * rng.standard_normal(100)
        x[:, :, 100:110] = 0.0
        self.assert_radius_is_eigvalsh(x)

    @pytest.mark.parametrize("n, N", [(2, 16), (3, 8)])
    def test_radius_matches_eigvalsh_on_manufactured_fields(self, n, N):
        grid = TorusGrid(n, N)
        terms = manufactured_terms(n, 0.25)
        u = make_field(grid, terms)
        self.assert_radius_is_eigvalsh(complex_hessian_layout(u.data, grid))
        self.assert_radius_is_eigvalsh(analytic_hessian_layout(grid, terms))
        want = float(np.max(np.abs(np.linalg.eigvalsh(complex_hessian(u)))))
        want /= 1.0 + gradient_sup(u) ** 2
        assert abs(laplacian_gradient_ratio(u) - want) <= 1e-12 * want


class TestSublevelVolumeDecay:
    def test_zero_field_all_zero(self):
        grid, omega = flat(2, 8)
        rep = sublevel_volume_decay(ScalarField.zeros(grid), [0.5, 1.0], omega, 1)
        assert all(frac == 0.0 for _, frac, _ in rep.rows)
        assert rep.bounded

    def test_cosine_sublevel_measure(self):
        # phi = cos(x1) - 1: {phi < -1} = {cos x1 < 0}, measure 1/2 +- h
        grid, omega = flat(2, 16)
        zero = (0, 0, 0, 0)
        phi = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0), (zero, -1.0, 0.0)])
        rep = sublevel_volume_decay(phi, [1.0], omega, 1)
        t, frac, tf = rep.rows[0]
        assert abs(frac - 0.5) <= grid.h

    def test_beyond_inf_is_empty(self):
        grid, omega = flat(2, 16)
        zero = (0, 0, 0, 0)
        phi = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0), (zero, -1.0, 0.0)])
        rep = sublevel_volume_decay(phi, [2.5], omega, 1)  # t > -inf phi = 2
        assert rep.rows[0][1] == 0.0

    def test_decay_product_bounded(self):
        grid, omega = flat(2, 16)
        zero = (0, 0, 0, 0)
        phi = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0), (zero, -1.0, 0.0)])
        rep = sublevel_volume_decay(phi, [0.1, 0.3, 1.0, 1.9], omega, 1)
        assert rep.bounded

    def test_requires_normalization(self):
        grid, omega = flat(2, 8)
        phi = ScalarField(grid, np.ones(grid.shape))
        with pytest.raises(InputError):
            sublevel_volume_decay(phi, [1.0], omega, 1)

    @pytest.mark.parametrize("t_list", [[0.0, 1.0], [-0.5], [], [0.1, float("nan"), 1.0],
                                        [float("inf")]],
                             ids=["zero", "negative", "empty", "nan", "inf"])
    def test_requires_positive_t(self, t_list):
        grid, omega = flat(2, 8)
        with pytest.raises(InputError, match="positive"):
            sublevel_volume_decay(ScalarField.zeros(grid), t_list, omega, 1)

    def test_rejects_nan_phi(self):
        # one NaN point passed the sup and the table checks: bounded=True
        grid, omega = flat(2, 8)
        data = np.zeros(grid.shape)
        data[1, 2, 3, 4] = np.nan
        with pytest.raises(InputError, match="finite"):
            sublevel_volume_decay(ScalarField(grid, data), [0.5, 1.0], omega, 1)

    def test_rejects_foreign_grid(self):
        # phi on N=16 with omega on N=8 raised numpy's broadcast ValueError
        _, omega = flat(2, 8)
        phi = ScalarField.zeros(TorusGrid(2, 16))
        with pytest.raises(InputError, match="different grids"):
            sublevel_volume_decay(phi, [0.5, 1.0], omega, 1)

    def test_requires_subharmonic(self):
        grid, omega = flat(2, 16)
        phi = make_field(grid, [((1, 0, 0, 0), 12.0, 0.0)])
        phi = ScalarField(grid, phi.data - phi.data.max())
        with pytest.raises(InputError):
            sublevel_volume_decay(phi, [1.0], omega, 1)


class TestLpNorm:
    def test_constant_field(self):
        grid, _ = flat(2, 8)
        u = ScalarField(grid, 2.0 * np.ones(grid.shape))
        want = 2.0 * (2 * np.pi) ** (4 / 3)  # (int 2^3 dV)^{1/3}
        assert lp_norm(u, 3) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [0, -1, float("nan"), float("inf")])
    def test_rejects_bad_p(self, p):
        # p = 0 raised ZeroDivisionError and p = -1 returned 6.4e-4 on ones
        grid, _ = flat(2, 8)
        with pytest.raises(InputError, match="finite and positive"):
            lp_norm(ScalarField(grid, np.ones(grid.shape)), p)


@pytest.fixture(scope="module")
def sweep():
    grid, omega = flat(2, 8)
    zero = (0, 0, 0, 0)
    f = make_field(grid, [(zero, 1.0, 0.0), ((1, 0, 0, 0), 0.3, 0.0)])
    psi = make_field(grid, [((0, 0, 1, 0), 1.0, 0.0)])
    # t_steps=2 as in criterion 8
    return stability_sweep(
        f, psi, [0.0, 1e-1, 1e-2], p=4.0, a=1.0 / 3, omega=omega, m=1,
        cfg=SolverConfig(t_steps=2), eps_schedule=(1.0, 0.3, 0.1, 0.03),
    )


@pytest.fixture
def no_solve(monkeypatch):
    """Fail the test if the sweep starts a normalized solve."""
    import hessianlab.inequalities as inequalities

    def solve(*args, **kwargs):
        raise AssertionError("a normalized solve ran before the input check")

    monkeypatch.setattr(inequalities, "solve_normalized", solve)


class TestStabilitySweep:
    def test_zero_delta_zero_ratio(self, sweep):
        assert sweep[0].delta == 0.0
        assert sweep[0].lhs == 0.0
        assert sweep[0].ratio == 0.0

    def test_records_positive_for_positive_delta(self, sweep):
        for rec in sweep[1:]:
            assert rec.lhs > 0 and rec.rhs > 0 and rec.ratio > 0

    def test_ratios_bounded(self, sweep):
        ratios = [r.ratio for r in sweep if r.ratio > 0]
        assert max(ratios) / min(ratios) <= 100.0

    def test_legal_flag(self, sweep):
        assert all(r.legal for r in sweep)

    def test_warm_started_deltas_take_fewer_newton_steps(self, sweep):
        # measured: 4 steps for the base (delta 0, one cold eps), 3 and 2 from its raw v
        assert all(r.newton_steps < sweep[0].newton_steps for r in sweep[1:])

    def test_no_cold_walk(self, sweep):
        # every one-eps start from the base's raw v converges
        assert not any(r.cold_walk for r in sweep)

    def test_rejected_first_warm_start_still_converges(self, monkeypatch):
        # at a Newton cap of 5 the one-eps solve of delta 0.99 from the base's
        # raw v hits the cap; the sweep then walks the schedule cold
        import hessianlab.inequalities as inequalities
        import hessianlab.solver as solver

        monkeypatch.setattr(solver, "_MAX_NEWTON", 5)
        calls = []
        inner = inequalities.solve_normalized

        def solve(g, omega, m, eps_schedule, cfg, v0=None):
            out = inner(g, omega, m, eps_schedule, cfg, v0=v0)
            failures = [r.failure for _, r in out[2].eps_path]
            calls.append((tuple(eps_schedule), v0 is not None, failures))
            return out

        monkeypatch.setattr(inequalities, "solve_normalized", solve)
        grid, omega = flat(2, 8)
        f = make_field(grid, default_density_terms(2))
        psi = make_field(grid, default_direction_terms(2))
        sched = (1.0, 0.3, 0.1, 0.03)
        records = stability_sweep(f, psi, [0.0, 0.99], p=4.0, a=0.3, omega=omega, m=1,
                                  eps_schedule=sched)
        assert calls == [
            (sched[-1:], False, [None]),  # the base, cold at the last eps
            (sched[-1:], True, ["Newton iteration cap"]),  # the one-eps start
            (sched, False, [None] * 4),  # the cold walk
        ]
        assert all(r.converged for r in records)
        assert [r.cold_walk for r in records] == [False, True]

    def test_rejected_base_solve_walks_the_schedule(self, monkeypatch):
        # the base's one-eps solve alone runs at a Newton cap of 1 and stalls
        # on its continuity path; the sweep then walks the schedule cold for f
        import hessianlab.inequalities as inequalities
        import hessianlab.solver as solver

        calls = []
        inner = inequalities.solve_normalized

        def solve(g, omega, m, eps_schedule, cfg, v0=None):
            with monkeypatch.context() as capped:
                if not calls:
                    capped.setattr(solver, "_MAX_NEWTON", 1)
                out = inner(g, omega, m, eps_schedule, cfg, v0=v0)
            failures = [r.failure for _, r in out[2].eps_path]
            calls.append((tuple(eps_schedule), v0 is not None, failures))
            return out

        monkeypatch.setattr(inequalities, "solve_normalized", solve)
        grid, omega = flat(2, 8)
        f = make_field(grid, default_density_terms(2))
        psi = make_field(grid, default_direction_terms(2))
        sched = (1.0, 0.3, 0.1, 0.03)
        records = stability_sweep(f, psi, [0.0, 0.1], p=4.0, a=0.3, omega=omega, m=1,
                                  eps_schedule=sched)
        assert calls == [
            (sched[-1:], False, ["continuity stalled at t=1.000000: Newton iteration cap"]),
            (sched, False, [None] * 4),  # the base's cold walk
            (sched[-1:], True, [None]),  # delta 0.1 from the walked base's raw v
        ]
        assert all(r.converged for r in records)
        assert [r.cold_walk for r in records] == [True, False]

    def test_failed_base_solves_no_delta(self, monkeypatch):
        # at a Newton cap of 1 the base fails its one-eps solve and its walk;
        # no ratio can be read off it, so no perturbed density is solved
        import hessianlab.inequalities as inequalities
        import hessianlab.solver as solver

        monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
        calls = []
        inner = inequalities.solve_normalized

        def solve(g, omega, m, eps_schedule, cfg, v0=None):
            calls.append((tuple(eps_schedule), v0 is not None))
            return inner(g, omega, m, eps_schedule, cfg, v0=v0)

        monkeypatch.setattr(inequalities, "solve_normalized", solve)
        grid, omega = flat(2, 8)
        f = make_field(grid, default_density_terms(2))
        psi = make_field(grid, default_direction_terms(2))
        sched = (1.0, 0.3, 0.1, 0.03)
        deltas = [0.0, 0.1, 0.01, 0.001]
        records = stability_sweep(f, psi, deltas, p=2.0, a=0.25, omega=omega, m=2,
                                  eps_schedule=sched)
        assert calls == [(sched[-1:], False), (sched, False)]
        assert [r.delta for r in records] == deltas
        assert not any(r.converged for r in records)
        assert records[0].lhs == 0.0 and records[0].cold_walk
        for rec, delta in zip(records[1:], deltas[1:]):
            assert np.isnan(rec.lhs) and np.isnan(rec.ratio)
            g = f.data * (1.0 + delta * psi.data)
            assert rec.rhs == lp_norm(ScalarField(grid, f.data - g), 2.0) ** 0.25
            assert rec.newton_steps == 0 and not rec.cold_walk

    def test_nan_delta_rejected(self, no_solve):
        # a NaN g passes min(g) <= 0; it is rejected before the base solve
        grid, omega = flat(2, 8)
        zero = (0, 0, 0, 0)
        f = make_field(grid, [(zero, 1.0, 0.0)])
        psi = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        with pytest.raises(InputError, match="delta=nan"):
            stability_sweep(f, psi, [0.1, float("nan")], p=4.0, a=0.3, omega=omega, m=1,
                            cfg=SolverConfig(t_steps=1), eps_schedule=(1.0, 0.3))

    @pytest.mark.parametrize("terms", [
        [((0, 0, 0, 0), 0.0, 0.0)],
        [((0, 0, 0, 0), -1.0, 0.0)],
        [((0, 0, 0, 0), 1.0, 0.0), ((1, 0, 0, 0), 2.0, 0.0)],
    ], ids=["zero", "negative", "dips-negative"])
    def test_nonpositive_f_rejected(self, no_solve, terms):
        grid, omega = flat(2, 8)
        f = make_field(grid, terms)
        psi = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        with pytest.raises(InputError, match="f must be strictly positive"):
            stability_sweep(f, psi, [0.1], p=4.0, a=0.3, omega=omega, m=1)

    def test_density_rule_checked_before_any_solve(self, no_solve):
        # g = 1 - (1 - 1e-8) cos x_1 is positive, but min g / max g = 5e-9 is
        # below the 1e-6 that solve_normalized demands: the sweep applies that
        # rule itself, so g is rejected before the base solve starts
        grid, omega = flat(2, 8)
        f = make_field(grid, [((0, 0, 0, 0), 1.0, 0.0)])
        psi = make_field(grid, [((1, 0, 0, 0), -1.0, 0.0)])
        with pytest.raises(InputError, match="delta=0.99999999 must be strictly positive"):
            stability_sweep(f, psi, [0.1, 1 - 1e-8], p=4.0, a=0.3, omega=omega, m=2)

    @pytest.mark.parametrize("m", [0, -1, 3])
    def test_degree_checked_before_any_solve(self, no_solve, m):
        # the legal flag divides by m, so the degree rule comes first
        grid, omega = flat(2, 8)
        f = make_field(grid, [((0, 0, 0, 0), 1.0, 0.0)])
        psi = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        with pytest.raises(InputError, match=rf"^m={m} out of range 1\.\.2$"):
            stability_sweep(f, psi, [0.1], p=4.0, a=0.3, omega=omega, m=m)

    @pytest.mark.parametrize("sched", [(1.0, 0.3, float("nan")), (float("nan"),),
                                       (float("inf"), 1.0), (), (0.3, 1.0)],
                             ids=["nan-last", "nan", "inf", "empty", "increasing"])
    def test_nonfinite_schedule_rejected(self, monkeypatch, sched):
        # the sweep applies the schedule walker's rule before any Newton step;
        # the base solve reads only the last eps, so nothing else would catch it
        import hessianlab.solver as solver

        def newton(*args):
            raise AssertionError("a Newton step ran before the schedule check")

        monkeypatch.setattr(solver, "_newton", newton)
        grid, omega = flat(2, 8)
        f = make_field(grid, [((0, 0, 0, 0), 1.0, 0.0), ((1, 0, 0, 0), 0.3, 0.0)])
        psi = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        with pytest.raises(InputError, match="eps schedule must .*finite"):
            stability_sweep(f, psi, [0.1], p=4.0, a=0.3, omega=omega, m=1,
                            cfg=SolverConfig(t_steps=1), eps_schedule=sched)

    def test_psi_on_another_grid_rejected(self, no_solve):
        grid, omega = flat(2, 8)
        zero = (0, 0, 0, 0)
        f = make_field(grid, [(zero, 1.0, 0.0)])
        psi = make_field(TorusGrid(2, 10), [((1, 0, 0, 0), 1.0, 0.0)])
        with pytest.raises(InputError, match="different grids"):
            stability_sweep(f, psi, [0.1], p=4.0, a=0.3, omega=omega, m=1)

    def test_illegal_exponent_recorded_not_rejected(self):
        grid, omega = flat(2, 8)
        zero = (0, 0, 0, 0)
        f = make_field(grid, [(zero, 1.0, 0.0)])
        psi = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        records = stability_sweep(
            f, psi, [1e-1], p=4.0, a=1.0, omega=omega, m=1,
            cfg=SolverConfig(t_steps=1), eps_schedule=(1.0, 0.3),
        )
        assert not records[0].legal

    def test_perturbation_must_stay_positive(self, no_solve):
        grid, omega = flat(2, 8)
        zero = (0, 0, 0, 0)
        f = make_field(grid, [(zero, 1.0, 0.0)])
        psi = make_field(grid, [((1, 0, 0, 0), 20.0, 0.0)])
        with pytest.raises(InputError, match="delta=0.1"):
            stability_sweep(f, psi, [0.1], p=4.0, a=0.3, omega=omega, m=1,
                            cfg=SolverConfig(t_steps=1), eps_schedule=(1.0, 0.3))

    @pytest.mark.parametrize("p, a", [(float("nan"), 0.25), (float("inf"), 0.25),
                                      (4.0, float("nan")), (4.0, float("inf"))],
                             ids=["p-nan", "p-inf", "a-nan", "a-inf"])
    def test_non_finite_exponents_rejected(self, p, a):
        # a nan exponent makes rhs nan (bare NaN in summary.json), p = inf makes it 1
        grid, omega = flat(2, 8)
        zero = (0, 0, 0, 0)
        f = make_field(grid, [(zero, 1.0, 0.0)])
        psi = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        with pytest.raises(InputError):
            stability_sweep(f, psi, [0.1], p=p, a=a, omega=omega, m=1)


EPS_SCHEDULE = (1.0, 0.3, 0.1, 0.03)


@pytest.fixture(scope="module")
def base_routes():
    """Criterion 8's m = n = 2, N = 16 sweep run twice: as is, and with the
    base's one-eps cold solve replaced by the walk down the whole schedule.
    Each run's solve_normalized calls are recorded."""
    import hessianlab.inequalities as inequalities

    grid, omega = flat(2, 16)
    f = make_field(grid, [((0, 0, 0, 0), 1.0, 0.0), ((1, 0, 0, 0), 0.3, 0.0)])
    psi = make_field(grid, [((1, 0, 0, 1), 1.0, 0.0)])
    inner = inequalities.solve_normalized
    runs = {}
    for route in ("one-eps", "walk"):
        calls = []

        def solve(g, omega, m, eps_schedule, cfg, v0=None):
            if route == "walk" and v0 is None and len(eps_schedule) == 1:
                eps_schedule = EPS_SCHEDULE
            out = inner(g, omega, m, eps_schedule, cfg, v0=v0)
            calls.append((tuple(eps_schedule), v0 is not None, out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inequalities, "solve_normalized", solve)
            records = stability_sweep(
                f, psi, [0.0, 1e-1, 1e-2, 1e-3], p=2.0, a=0.25, omega=omega, m=2,
                cfg=SolverConfig(t_steps=2), eps_schedule=EPS_SCHEDULE,
            )
        runs[route] = (records, calls)
    return runs


class TestStabilitySweepBase:
    def test_one_solve_per_density(self, base_routes):
        records, calls = base_routes["one-eps"]
        assert [(sched, warm) for sched, warm, _ in calls] == [
            (EPS_SCHEDULE[-1:], False),  # the base, cold at the last eps
            *[(EPS_SCHEDULE[-1:], True)] * 3,  # each delta from the base's raw v
        ]
        assert all(r.converged and not r.cold_walk for r in records)
        # measured: 3 steps at the last eps alone; the schedule walk takes 11
        assert records[0].newton_steps <= 3

    def test_routes_reach_one_discrete_pair(self, base_routes):
        one_records, one_calls = base_routes["one-eps"]
        walk_records, walk_calls = base_routes["walk"]
        assert walk_calls[0][0] == EPS_SCHEDULE  # the walk route walked
        (u_one, c_one, _), (u_walk, c_walk, _) = one_calls[0][2], walk_calls[0][2]
        # measured: sup|u| apart 1.6e-10, c apart 1.4e-11, ratios 4.3e-8 relative
        assert np.max(np.abs(u_one.data - u_walk.data)) <= 10 * 1.6e-10
        assert abs(c_one - c_walk) <= 10 * 1.4e-11
        for one, walk in zip(one_records[1:], walk_records[1:]):
            assert one.ratio == pytest.approx(walk.ratio, rel=10 * 4.3e-8, abs=0)


class TestMonotoneComparisonOfDensities:
    def test_f_le_g_orders_auxiliary_solutions(self):
        # fixed eps: log sigma(v) = eps v + log f; f <= g gives v_f >= v_g
        grid, omega = flat(2, 8)
        from hessianlab.solver import solve_normalized

        zero = (0, 0, 0, 0)
        f = make_field(grid, [(zero, 1.0, 0.0), ((1, 0, 0, 0), 0.2, 0.0)])
        g = ScalarField(grid, f.data * 1.5)
        sched = [1.0, 0.3]
        cfg = SolverConfig(t_steps=1)
        uf, _, rf = solve_normalized(f, omega, 1, sched, cfg)
        ug, _, rg = solve_normalized(g, omega, 1, sched, cfg)
        assert rf.converged and rg.converged
        # compare the raw auxiliary iterates: v = u + sup v; sup v = log(c)/eps
        vf = uf.data + np.log(rf.c_estimates[-1]) / sched[-1]
        vg = ug.data + np.log(rg.c_estimates[-1]) / sched[-1]
        assert np.min(vf - vg) >= -10 * cfg.newton_tol
