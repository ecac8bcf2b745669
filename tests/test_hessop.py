"""Hessian operator, linearization, and polarized products."""

import math
from itertools import permutations

import numpy as np
import pytest

from hessianlab.errors import ConeBreachError, InputError
from hessianlab.geometry import (
    MetricField,
    ScalarField,
    TorusGrid,
    complex_hessian_array,
    make_field,
)
from hessianlab.hermlin import generalized_eigenvalues, generalized_eigh
from hessianlab.hessop import (
    _minor_sums,
    apply_linearization,
    linearization,
    mixed_product,
    polarization_constant,
    sigma_m,
    sigma_of_form,
    sk_table_of_state,
    state_matrices,
)
from hessianlab.symfunc import cone_mask, elementary_symmetric_table


def flat(n=2, N=16):
    grid = TorusGrid(n, N)
    return grid, MetricField.flat(grid)


def random_hermitian(rng, n, shift=0.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T) + shift * np.eye(n)


def random_cone_form(rng, n, m, shift=1.5):
    while True:
        g = random_hermitian(rng, n, shift)
        if cone_mask(np.linalg.eigvalsh(g), m):
            return g


class TestSigmaM:
    def test_zero_field_flat(self):
        grid, omega = flat()
        val = sigma_m(ScalarField.zeros(grid), omega, 1)
        np.testing.assert_allclose(val.sigma.data, 1.0)
        assert val.cone_mask.all()

    def test_m1_cosine_symbolic_oracle(self):
        # sigma_1 = 1 + tr(dd^c u)/n = 1 - (a/(4n)) cos(x_1) + O(h^2)
        grid, omega = flat()
        a = 0.5
        u = make_field(grid, [((1, 0, 0, 0), a, 0.0)])
        got = sigma_m(u, omega, 1).sigma.data
        pred = 1.0 - (a / (4 * grid.n)) * np.cos(grid.axis_coordinate(0)) * np.ones(grid.shape)
        assert np.max(np.abs(got - pred)) < 0.5 * grid.h**2

    def test_metric_relative_normalization(self):
        # scaling the metric by a constant leaves lambda = 1, sigma = 1
        grid = TorusGrid(3, 8)
        omega = MetricField.flat(grid, scale=2.0)
        val = sigma_m(ScalarField.zeros(grid), omega, 2)
        np.testing.assert_allclose(val.sigma.data, 1.0, atol=1e-13)
        assert val.cone_mask.all()

    def test_matches_eigenvalue_route(self):
        # closed-form minor sums against an explicit eigensolve
        rng = np.random.default_rng(0)
        grid, omega = flat(2, 8)
        u = ScalarField(grid, 0.3 * rng.normal(size=grid.shape))
        from hessianlab.geometry import complex_hessian
        from hessianlab.hermlin import eigvalsh_desc
        from hessianlab.symfunc import elementary_symmetric_table

        got = sigma_m(u, omega, 2).sigma.data
        lam = eigvalsh_desc(complex_hessian(u) + np.eye(2))
        want = elementary_symmetric_table(lam, 2)[..., 2] / math.comb(2, 2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_m_out_of_range(self):
        grid, omega = flat()
        with pytest.raises(InputError):
            sigma_m(ScalarField.zeros(grid), omega, 3)

    def test_sigma_defined_outside_cone(self):
        # raw polynomial value, negative where the cone is left
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 12.0, 0.0)])
        val = sigma_m(u, omega, 1)
        assert not val.cone_mask.all()
        assert np.min(val.sigma.data) < 0.0

    def test_maclaurin_pointwise(self):
        # on Gamma_n: sigma_n^{1/n} <= sigma_m^{1/m}
        rng = np.random.default_rng(1)
        grid, omega = flat(3, 8)
        u = ScalarField(grid, 0.2 * rng.normal(size=grid.shape))
        s3 = sigma_m(u, omega, 3)
        if not s3.cone_mask.all():
            u = ScalarField(grid, 0.05 * rng.normal(size=grid.shape))
            s3 = sigma_m(u, omega, 3)
        assert s3.cone_mask.all()
        s2 = sigma_m(u, omega, 2).sigma.data
        lhs = s3.sigma.data ** (1.0 / 3)
        rhs = s2 ** (1.0 / 2)
        assert np.min(rhs - lhs) > -1e-10


class TestVariableMetric:
    def test_sigma_fixed_point(self):
        # omega = e^phi I varies over the grid; u = 0 still gives lambda = 1
        grid = TorusGrid(2, 8)
        omega = MetricField.conformal(grid, np.eye(2), [((1, 0, 0, 0), 0.3, 0.0)])
        val = sigma_m(ScalarField.zeros(grid), omega, 1)
        np.testing.assert_allclose(val.sigma.data, 1.0, atol=1e-12)
        assert val.cone_mask.all()
        assert omega.torsion_sup() > 0

    def test_frame_orthonormal_per_point(self):
        # u = 0 puts every relative eigenvalue at 1, so for m = 1 the
        # omega-orthonormal frame gives A = sum_k e_k e_k^* / n = omega^{-1} / 2
        grid = TorusGrid(2, 8)
        omega = MetricField.conformal(grid, np.eye(2), [((1, 0, 0, 0), 0.3, 0.0)])
        lin = linearization(ScalarField.zeros(grid), omega, 1, 1.0)
        want = np.linalg.inv(omega.form) / 2.0
        assert np.max(np.abs(lin.coefficient_matrices() - want)) < 1e-12


class TestLinearization:
    def test_flat_weights_m2_n3(self):
        grid = TorusGrid(3, 8)
        omega = MetricField.flat(grid)
        lin = linearization(ScalarField.zeros(grid), omega, 2, 0.0)
        coeff = lin.coefficient_matrices()
        want = np.broadcast_to((2.0 / 3.0) * np.eye(3), coeff.shape)
        np.testing.assert_allclose(coeff, want, atol=1e-15)

    def test_m1_weights(self):
        grid, omega = flat()
        lin = linearization(ScalarField.zeros(grid), omega, 1, 0.0)
        coeff = lin.coefficient_matrices()
        want = np.broadcast_to(0.5 * np.eye(2), coeff.shape)  # I/S_1(1,1)
        np.testing.assert_allclose(coeff, want, atol=1e-15)

    def test_monge_ampere_weights(self):
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 0.4, 0.0), ((0, 1, 1, 0), 0.0, 0.3)])
        lin = linearization(u, omega, 2, 0.0)
        from hessianlab.geometry import complex_hessian
        from hessianlab.hermlin import eigvalsh_desc

        lam = eigvalsh_desc(complex_hessian(u) + np.eye(2))
        got = np.sort(np.linalg.eigvalsh(lin.coefficient_matrices()), axis=-1)
        np.testing.assert_allclose(got, np.sort(1.0 / lam, axis=-1), rtol=1e-9)

    def test_ellipticity_on_cone(self):
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 0.5, 0.0), ((0, 0, 1, 1), 0.0, 0.4)])
        lin = linearization(u, omega, 1, 1.0)
        assert np.all(np.linalg.eigvalsh(lin.coefficient_matrices()) > 0)

    def test_cone_breach_reports_witness(self):
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 12.0, 0.0)])
        with pytest.raises(ConeBreachError) as err:
            linearization(u, omega, 1, 1.0)
        assert err.value.point is not None
        assert err.value.lam is not None


def _metric(kind, grid):
    n = grid.n
    if kind == "flat":
        return MetricField.flat(grid)
    if kind == "constant":
        form = np.eye(n, dtype=complex) * np.arange(2, n + 2)
        form[0, 1], form[1, 0] = 0.4 + 0.3j, 0.4 - 0.3j
        return MetricField.constant_form(grid, form)
    x1 = (1,) + (0,) * (2 * n - 1)
    return MetricField.conformal(grid, np.eye(n), [(x1, 0.3, 0.0)])


def _eigenframe_coefficients(lam, frame, m):
    """sum_k w_k e_k e_k^* with w_k = S_{m-1}(lambda without k) / S_m(lambda).

    The batched-eigensolve route the Newton tensor replaced, kept as the
    reference it is checked against.
    """
    s_m = elementary_symmetric_table(lam, m)[..., m]
    weights = np.empty(lam.shape)
    for k in range(lam.shape[-1]):
        rest = np.delete(lam, k, axis=-1)
        weights[..., k] = elementary_symmetric_table(rest, m - 1)[..., m - 1] / s_m
    return np.einsum("...jk,...k,...lk->...jl", frame, weights, np.conj(frame))


def _cone_state(grid):
    """A state with off-diagonal Hessian entries inside every Gamma_m."""
    n = grid.n
    x1 = (1,) + (0,) * (2 * n - 1)
    y1_xn = (0, 1) + (0,) * (2 * n - 4) + (1, 0)
    return make_field(grid, [(x1, 0.3, 0.0), (y1_xn, 0.0, 0.2)])


class TestNewtonTensorOracle:
    @pytest.mark.parametrize("kind", ["flat", "constant", "conformal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_eigenframe_route(self, n, kind):
        grid = TorusGrid(n, 8)
        omega = _metric(kind, grid)
        u = _cone_state(grid)
        assert sigma_m(u, omega, n).cone_mask.all()  # inside every Gamma_m
        g = state_matrices(u.data, omega)
        lam, frame = generalized_eigh(g, omega.cholesky_inverse())
        for m in range(1, n + 1):
            got = linearization(u, omega, m, 1.0).coefficient_matrices()
            want = _eigenframe_coefficients(lam, frame, m)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), m

    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_fast_path_bit_exact(self, n):
        grid = TorusGrid(n, 8)
        omega = MetricField.flat(grid)
        u = make_field(grid, [((1,) + (0,) * (2 * n - 1), 0.5, 0.0)])
        g = state_matrices(u.data, omega)
        general = _minor_sums(np.linalg.inv(omega.form) @ g, n)
        assert np.array_equal(sk_table_of_state(g, omega, n), general)

    @pytest.mark.parametrize("kind", ["flat", "conformal"])
    def test_breach_lam_is_spectrum_at_point(self, kind):
        grid = TorusGrid(2, 8)
        omega = _metric(kind, grid)
        u = make_field(grid, [((1, 0, 0, 0), 12.0, 0.0)])
        with pytest.raises(ConeBreachError) as err:
            linearization(u, omega, 1, 1.0)
        point = err.value.point
        g = state_matrices(u.data, omega)[point]
        form = omega.form if omega.constant else omega.form[point]
        want = generalized_eigenvalues(g, form).values
        np.testing.assert_allclose(err.value.lam, want, rtol=1e-14, atol=1e-14)
        assert want[-1] < 0.0


class TestApplyLinearization:
    @pytest.mark.parametrize("kind", ["flat", "constant", "conformal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matvec_matches_hessian_contraction(self, n, kind):
        # the stencil-weight matvec against tr(A dd^c v) - q v formed from
        # the complex Hessian of v and the coefficient field A
        grid = TorusGrid(n, 8)
        omega = _metric(kind, grid)
        u = _cone_state(grid)
        v = ScalarField(grid, np.random.default_rng(n).normal(size=grid.shape))
        hess = complex_hessian_array(v.data, grid)
        q = 0.7
        for m in range(1, n + 1):
            lin = linearization(u, omega, m, q)
            a = lin.coefficient_matrices()
            want = np.einsum("...jl,...lj->...", a, hess).real - q * v.data
            got = apply_linearization(lin, v).data
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), m

    def test_constant_field(self):
        grid, omega = flat()
        lin = linearization(ScalarField.zeros(grid), omega, 1, 3.0)
        c = ScalarField(grid, 2.0 * np.ones(grid.shape))
        out = apply_linearization(lin, c)
        np.testing.assert_allclose(out.data, -6.0, atol=1e-12)

    def test_symbolic_oracle_m1(self):
        # flat, u = 0, m = 1: L v = (1/n) tr(dd^c v) - q v
        grid, omega = flat()
        q = 1.0
        lin = linearization(ScalarField.zeros(grid), omega, 1, q)
        v = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        out = apply_linearization(lin, v)
        ch = (2 - 2 * np.cos(grid.h)) / grid.h**2
        pred = (-(ch / (4 * grid.n)) - q) * v.data
        assert np.max(np.abs(out.data - pred)) < 1e-12
        cont = (-(1 / (4 * grid.n)) - q) * v.data
        assert np.max(np.abs(out.data - cont)) < 0.1 * grid.h**2

    def test_linearity_exact(self):
        grid, omega = flat(2, 8)
        rng = np.random.default_rng(4)
        u = make_field(grid, [((1, 0, 0, 0), 0.3, 0.0)])
        lin = linearization(u, omega, 2, 1.0)
        v = ScalarField(grid, rng.normal(size=grid.shape))
        # power-of-two scaling commutes with every rounding step, so this
        # holds bitwise; generic scalars hold to roundoff
        a = apply_linearization(lin, ScalarField(grid, 2.0 * v.data)).data
        b = 2.0 * apply_linearization(lin, v).data
        np.testing.assert_array_equal(a, b)
        a3 = apply_linearization(lin, ScalarField(grid, 3.0 * v.data)).data
        b3 = 3.0 * apply_linearization(lin, v).data
        scale = np.maximum(1.0, np.abs(b3))
        assert np.max(np.abs(a3 - b3) / scale) < 1e-12

    def test_chain_rule_directional_derivative(self):
        # (sigma(u + s v) - sigma(u))/s matches the sigma-scaled linearization
        grid, omega = flat(2, 8)
        u = make_field(grid, [((1, 0, 0, 0), 0.4, 0.0), ((0, 1, -1, 0), 0.0, 0.3)])
        v = make_field(grid, [((0, 0, 1, 0), 1.0, 0.0), ((1, 0, 0, 1), 0.0, 0.7)])
        m = 2
        base = sigma_m(u, omega, m)
        assert base.cone_mask.all()
        lin = linearization(u, omega, m, 0.0)
        lin.weights = lin.weights * base.sigma.data
        pred = apply_linearization(lin, v).data
        s = 1e-5
        bumped = sigma_m(ScalarField(grid, u.data + s * v.data), omega, m)
        fd = (bumped.sigma.data - base.sigma.data) / s
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(fd - pred) / scale) < 1e-4

    def test_grid_mismatch(self):
        grid, omega = flat(2, 8)
        lin = linearization(ScalarField.zeros(grid), omega, 1, 0.0)
        other = TorusGrid(2, 16)
        with pytest.raises(InputError):
            apply_linearization(lin, ScalarField.zeros(other))


class TestMixedProduct:
    def test_all_omega(self):
        assert mixed_product([np.eye(3)] * 2, np.eye(3), 2) == pytest.approx(1.0)

    def test_diagonal_example(self):
        g1 = np.diag([2.0, 0.0, 0.0]).astype(complex)
        g2 = np.diag([0.0, 2.0, 0.0]).astype(complex)
        got = mixed_product([g1, g2], np.eye(3), 2)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_swap_exact(self):
        rng = np.random.default_rng(6)
        g1 = random_cone_form(rng, 3, 2)
        g2 = random_cone_form(rng, 3, 2)
        assert mixed_product([g1, g2], np.eye(3), 2) == mixed_product(
            [g2, g1], np.eye(3), 2
        )

    def test_all_permutations_exact_m3(self):
        rng = np.random.default_rng(7)
        gs = [random_cone_form(rng, 3, 3) for _ in range(3)]
        vals = {mixed_product(list(p), np.eye(3), 3) for p in permutations(gs)}
        assert len(vals) == 1

    def test_permanent_oracle_diagonals(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d1, d2 = rng.normal(size=3), rng.normal(size=3)
            got = mixed_product(
                [np.diag(d1).astype(complex), np.diag(d2).astype(complex)],
                np.eye(3),
                2,
            )
            want = sum(
                d1[i] * d2[j] for i in range(3) for j in range(3) if i != j
            ) / 6.0
            assert abs(got - want) < 1e-10

    def test_repeated_arguments_reproduce_sigma(self):
        rng = np.random.default_rng(9)
        for m, n in [(2, 3), (3, 3), (2, 2)]:
            g = random_cone_form(rng, n, m)
            got = mixed_product([g] * m, np.eye(n), m)
            want = sigma_of_form(g, np.eye(n), m)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_poly_lem_bound_explicit_constant(self):
        rng = np.random.default_rng(10)
        for m, n in [(2, 3), (3, 4)]:
            const = polarization_constant(m)
            for _ in range(100):
                gs = [random_cone_form(rng, n, m) for _ in range(m)]
                lhs = abs(mixed_product(gs, np.eye(n), m))
                total = gs[0].copy()
                for g in gs[1:]:
                    total = total + g
                rhs = const * sigma_of_form(total, np.eye(n), m)
                assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    def test_wrong_count(self):
        with pytest.raises(InputError):
            mixed_product([np.eye(3)], np.eye(3), 2)
