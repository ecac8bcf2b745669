"""Hessian operator, linearization, and polarized products."""

import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from hessianlab import geometry
from hessianlab.errors import InputError
from hessianlab.geometry import (
    MetricField,
    ScalarField,
    TorusGrid,
    complex_hessian_layout,
    make_field,
)
from hessianlab.hessop import (
    apply_linearization_array,
    linearization,
    mixed_product,
    polarization_constant,
    sigma_m,
    sigma_of_form,
    sk_table_of_state,
    state_matrices,
)
from hessianlab.solver import _Equation
from hessianlab.symfunc import cone_mask, elementary_symmetric_table
from oracles import coefficient_matrices, complex_hessian, generalized_eigh, linearize


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
        from hessianlab.symfunc import elementary_symmetric_table

        got = sigma_m(u, omega, 2).sigma.data
        lam = np.linalg.eigvalsh(complex_hessian(u) + np.eye(2))[..., ::-1]
        want = elementary_symmetric_table(lam, 2)[..., 2] / math.comb(2, 2)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_m_out_of_range(self):
        grid, omega = flat()
        with pytest.raises(InputError):
            sigma_m(ScalarField.zeros(grid), omega, 3)

    def test_grid_mismatch(self):
        grid, _ = flat(2, 8)
        _, omega = flat(2, 16)
        with pytest.raises(InputError, match="different grids"):
            sigma_m(ScalarField.zeros(grid), omega, 1)

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

    def test_frame_orthonormal_per_point(self):
        # u = 0 puts every relative eigenvalue at 1, so for m = 1 the
        # omega-orthonormal frame gives A = sum_k e_k e_k^* / n = omega^{-1} / 2
        grid = TorusGrid(2, 8)
        omega = MetricField.conformal(grid, np.eye(2), [((1, 0, 0, 0), 0.3, 0.0)])
        lin = linearize(ScalarField.zeros(grid), omega, 1, 1.0)
        want = np.linalg.inv(omega.form) / 2.0
        assert np.max(np.abs(coefficient_matrices(lin) - want)) < 1e-12


class TestLinearization:
    def test_flat_weights_m2_n3(self):
        grid = TorusGrid(3, 8)
        omega = MetricField.flat(grid)
        lin = linearize(ScalarField.zeros(grid), omega, 2, 0.0)
        coeff = coefficient_matrices(lin)
        want = np.broadcast_to((2.0 / 3.0) * np.eye(3), coeff.shape)
        np.testing.assert_allclose(coeff, want, atol=1e-15)

    def test_m1_weights(self):
        grid, omega = flat()
        lin = linearize(ScalarField.zeros(grid), omega, 1, 0.0)
        coeff = coefficient_matrices(lin)
        want = np.broadcast_to(0.5 * np.eye(2), coeff.shape)  # I/S_1(1,1)
        np.testing.assert_allclose(coeff, want, atol=1e-15)

    def test_monge_ampere_weights(self):
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 0.4, 0.0), ((0, 1, 1, 0), 0.0, 0.3)])
        lin = linearize(u, omega, 2, 0.0)
        lam = np.linalg.eigvalsh(complex_hessian(u) + np.eye(2))[..., ::-1]
        got = np.sort(np.linalg.eigvalsh(coefficient_matrices(lin)), axis=-1)
        np.testing.assert_allclose(got, np.sort(1.0 / lam, axis=-1), rtol=1e-9)

    def test_ellipticity_on_cone(self):
        grid, omega = flat()
        u = make_field(grid, [((1, 0, 0, 0), 0.5, 0.0), ((0, 0, 1, 1), 0.0, 0.4)])
        lin = linearize(u, omega, 1, 1.0)
        assert np.all(np.linalg.eigvalsh(coefficient_matrices(lin)) > 0)


def _metric(kind, grid):
    """flat; constant (a skewed constant form); conformal (e^phi I); or
    skewed-conformal (e^phi times the constant kind's form)."""
    n = grid.n
    if kind == "flat":
        return MetricField.flat(grid)
    form = np.eye(n, dtype=complex) * np.arange(2, n + 2)
    form[0, 1], form[1, 0] = 0.4 + 0.3j, 0.4 - 0.3j
    if kind == "constant":
        return MetricField(grid, form)
    x1 = (1,) + (0,) * (2 * n - 1)
    base = form if kind == "skewed-conformal" else np.eye(n)
    return MetricField.conformal(grid, base, [(x1, 0.3, 0.0)])


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
    @pytest.mark.parametrize("kind", ["flat", "constant", "conformal", "skewed-conformal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_eigenframe_route(self, n, kind):
        grid = TorusGrid(n, 8)
        omega = _metric(kind, grid)
        u = _cone_state(grid)
        assert sigma_m(u, omega, n).cone_mask.all()  # inside every Gamma_m
        g = complex_hessian(u) + omega.form
        lam, frame = generalized_eigh(g, omega.form)
        for m in range(1, n + 1):
            got = coefficient_matrices(linearize(u, omega, m, 1.0))
            want = _eigenframe_coefficients(lam, frame, m)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), m

    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_fast_path_bit_exact(self, n):
        # the flat metric takes no conformal field; a conformal metric with
        # phi = 0 divides by its field of ones, which changes no bit
        grid = TorusGrid(n, 8)
        omega = MetricField.flat(grid)
        general = MetricField.conformal(grid, np.eye(n), [])
        assert omega.exp_phi is None and general.exp_phi is not None
        u = make_field(grid, [((1,) + (0,) * (2 * n - 1), 0.5, 0.0)])
        b = state_matrices(u.data, omega)
        assert np.array_equal(b, state_matrices(u.data, general))
        assert np.array_equal(sk_table_of_state(b, omega, n),
                              sk_table_of_state(b, general, n))
        for m in range(1, n + 1):
            assert np.array_equal(linearize(u, omega, m, 1.0).weights,
                                  linearize(u, general, m, 1.0).weights)


class TestHermitianLayout:
    @pytest.mark.parametrize("kind", ["flat", "constant", "conformal", "skewed-conformal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_sk_table_matches_eigenvalues(self, n, kind):
        # S_k from the layout, through B' and through a complex g, against
        # the elementary symmetric functions of the relative eigenvalues
        grid = TorusGrid(n, 8)
        omega = _metric(kind, grid)
        u = ScalarField(grid, 0.3 * np.random.default_rng(n).normal(size=grid.shape))
        g = complex_hessian(u) + omega.form
        lam, _ = generalized_eigh(g, omega.form)
        b = state_matrices(u.data, omega)
        for m in range(1, n + 1):
            want = elementary_symmetric_table(lam, m)
            scale = np.max(np.abs(want), axis=tuple(range(2 * n)))
            for got in (sk_table_of_state(b, omega, m), sk_table_of_state(g, omega, m)):
                assert got.shape == want.shape
                assert np.all(np.max(np.abs(got - want), axis=tuple(range(2 * n)))
                              <= 1e-13 * scale), m

    @pytest.mark.parametrize("complex_state", [False, True], ids=["layout", "complex"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_rejects_degree_above_dimension(self, n, complex_state):
        grid, omega = flat(n, 8)
        b = state_matrices(np.zeros(grid.shape), omega)
        state = complex_hessian(ScalarField.zeros(grid)) + omega.form if complex_state else b
        with pytest.raises(InputError, match=rf"^m={n + 1} out of range 1\.\.{n}$"):
            sk_table_of_state(state, omega, n + 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_metric_is_scaled_flat(self, n):
        # omega = s I: B' = I + dd^c u / s, so sigma_m(u) is sigma_m(u / s)
        # on the flat metric and A = T_{m-1}(B') / (s S_m) is its A over s
        grid = TorusGrid(n, 8)
        s = 4.0
        scaled, flat1 = MetricField.flat(grid, s), MetricField.flat(grid)
        u = _cone_state(grid)
        v = ScalarField(grid, u.data / s)
        for m in range(1, n + 1):
            got = sigma_m(u, scaled, m).sigma.data
            want = sigma_m(v, flat1, m).sigma.data
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), m
            got = linearize(u, scaled, m, 0.7).weights
            want = linearize(v, flat1, m, 0.7).weights / s
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), m


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
        hess = complex_hessian(v)
        q = 0.7
        for m in range(1, n + 1):
            lin = linearize(u, omega, m, q)
            a = coefficient_matrices(lin)
            want = np.einsum("...jl,...lj->...", a, hess).real - q * v.data
            got = apply_linearization_array(lin, v.data)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), m

    def test_constant_field(self):
        grid, omega = flat()
        lin = linearize(ScalarField.zeros(grid), omega, 1, 3.0)
        c = ScalarField(grid, 2.0 * np.ones(grid.shape))
        out = apply_linearization_array(lin, c.data)
        np.testing.assert_allclose(out, -6.0, atol=1e-12)

    def test_symbolic_oracle_m1(self):
        # flat, u = 0, m = 1: L v = (1/n) tr(dd^c v) - q v
        grid, omega = flat()
        q = 1.0
        lin = linearize(ScalarField.zeros(grid), omega, 1, q)
        v = make_field(grid, [((1, 0, 0, 0), 1.0, 0.0)])
        out = apply_linearization_array(lin, v.data)
        ch = (2 - 2 * np.cos(grid.h)) / grid.h**2
        pred = (-(ch / (4 * grid.n)) - q) * v.data
        assert np.max(np.abs(out - pred)) < 1e-12
        cont = (-(1 / (4 * grid.n)) - q) * v.data
        assert np.max(np.abs(out - cont)) < 0.1 * grid.h**2

    def test_linearity_exact(self):
        grid, omega = flat(2, 8)
        rng = np.random.default_rng(4)
        u = make_field(grid, [((1, 0, 0, 0), 0.3, 0.0)])
        lin = linearize(u, omega, 2, 1.0)
        v = ScalarField(grid, rng.normal(size=grid.shape))
        # power-of-two scaling commutes with every rounding step, so this
        # holds bitwise; generic scalars hold to roundoff
        a = apply_linearization_array(lin, 2.0 * v.data)
        b = 2.0 * apply_linearization_array(lin, v.data)
        np.testing.assert_array_equal(a, b)
        a3 = apply_linearization_array(lin, 3.0 * v.data)
        b3 = 3.0 * apply_linearization_array(lin, v.data)
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
        lin = linearize(u, omega, m, 0.0)
        lin.weights = lin.weights * base.sigma.data
        pred = apply_linearization_array(lin, v.data)
        s = 1e-5
        bumped = sigma_m(ScalarField(grid, u.data + s * v.data), omega, m)
        fd = (bumped.sigma.data - base.sigma.data) / s
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(fd - pred) / scale) < 1e-4


class TestZeroWeightPairs:
    """Cross stencils whose weights are all zero add exactly +-0, so the
    matvec skips them; it stays bit-identical to the sum over every stencil."""

    @staticmethod
    def _generic_state(grid):
        """A state inside Gamma_2 whose Hessian couples every pair (j, k)."""
        n = grid.n
        terms = [((1,) + (0,) * (2 * n - 1), 0.3, 0.0)]
        for j in range(n):
            for k in range(j + 1, n):
                freq = [0] * (2 * n)
                freq[2 * j], freq[2 * k + 1] = 1, 1
                terms.append((tuple(freq), 0.0, 0.1))
        return make_field(grid, terms)

    @staticmethod
    def _full_sum(lin, v):
        # apply_linearization_array with every cross stencil, in its order
        w = lin.weights
        out = -lin.q * v
        for j, k, d_re, d_im in geometry._stencils(v):
            if d_im is None:
                out += d_re * w[j, j]
            else:
                out += d_re * w[k, j]
                out -= d_im * w[j, k]
        return out

    @pytest.mark.parametrize("kind", ["flat", "conformal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_m1_on_diagonal_metric_has_no_pairs(self, n, kind):
        grid = TorusGrid(n, 8)
        lin = linearize(_cone_state(grid), _metric(kind, grid), 1, 0.7)
        assert lin.pairs == frozenset()

    @pytest.mark.parametrize("kind", ["flat", "constant", "conformal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_pairs_at_u_zero_and_generic_u(self, n, kind):
        grid = TorusGrid(n, 8)
        omega = _metric(kind, grid)
        every = frozenset((j, k) for j in range(n) for k in range(j + 1, n))
        for m in range(1, n + 1):
            lin = linearize(ScalarField.zeros(grid), omega, m, 1.0)
            # the constant metric has an off-diagonal entry, so it keeps its pair
            assert lin.pairs == (frozenset({(0, 1)}) if kind == "constant" else frozenset())
        u = self._generic_state(grid)
        assert sigma_m(u, omega, 2).cone_mask.all()
        assert linearize(u, omega, 2, 1.0).pairs == every

    @pytest.mark.parametrize("kind", ["flat", "constant", "conformal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matvec_equals_sum_over_every_stencil(self, n, kind):
        grid = TorusGrid(n, 8)
        omega = _metric(kind, grid)
        v = np.random.default_rng(n).normal(size=grid.shape)
        for u in (ScalarField.zeros(grid), _cone_state(grid), self._generic_state(grid)):
            for m in range(1, n + 1):
                lin = linearize(u, omega, m, 0.7)
                assert np.array_equal(apply_linearization_array(lin, v),
                                      self._full_sum(lin, v)), (m, len(lin.pairs))

    def test_m1_matvec_takes_no_difference(self, monkeypatch):
        # n = 2 without the skip: dx, dy and four second differences; the
        # rings' neighbour sums (op=np.add) are not cross differences
        grid, omega = flat(2, 8)
        u = self._generic_state(grid)
        m1, m2 = linearize(u, omega, 1, 1.0), linearize(u, omega, 2, 1.0)
        calls = []
        difference = geometry._difference

        def counted(*args, **kwargs):
            if kwargs.get("op") is not np.add:
                calls.append(args[1])
            return difference(*args, **kwargs)

        monkeypatch.setattr(geometry, "_difference", counted)
        apply_linearization_array(m1, np.ones(grid.shape))
        assert calls == []
        apply_linearization_array(m2, np.ones(grid.shape))
        assert len(calls) == 6


class TestSlabs:
    """Every grid kernel runs over slabs of rows along axis 0; how the grid
    is split changes no bit of any output, and no kernel holds more than a
    few full-size temporaries."""

    @staticmethod
    def _kernels(omega, v):
        """Every kernel's output, keyed by kernel and degree, at a state that
        couples every pair (j, k) and lies inside every Gamma_m."""
        grid = omega.grid
        u = TestZeroWeightPairs._generic_state(grid).data
        out = {"hessian": complex_hessian_layout(u, grid), "state": state_matrices(u, omega)}
        for m in range(1, grid.n + 1):
            b = state_matrices(u, omega)  # fresh: linearization writes over it
            table = sk_table_of_state(b, omega, m)
            assert np.all(table[..., 1 : m + 1] > 0.0)
            lin = linearization(b, table, omega, m, 0.7)
            assert np.shares_memory(lin.weights, b)
            out["table", m], out["weights", m] = table, lin.weights
            out["matvec", m] = apply_linearization_array(lin, v)
        return out

    @pytest.mark.parametrize("kind", ["flat", "constant", "conformal", "skewed-conformal"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_split_is_bit_identical(self, n, kind, monkeypatch):
        grid = TorusGrid(n, 8)
        omega = _metric(kind, grid)
        v = np.random.default_rng(n).normal(size=grid.shape)
        row = grid.points // grid.N
        monkeypatch.setattr(geometry, "_SLAB_POINTS", grid.points)
        assert geometry._slabs(grid.shape) == [slice(0, 8)]
        want = self._kernels(omega, v)
        for rows, split in ((1, [1] * 8), (3, [3, 3, 2])):
            monkeypatch.setattr(geometry, "_SLAB_POINTS", rows * row)
            assert [s.stop - s.start for s in geometry._slabs(grid.shape)] == split
            got = self._kernels(omega, v)
            assert got.keys() == want.keys()
            for key in want:
                assert np.array_equal(got[key], want[key]), (rows, key)

    # tracemalloc peaks of one matvec, one solver evaluate (B', its S_k
    # table and the residual) and one linearization, in grid arrays, at the
    # default slab size: whole-grid kernels peaked at 7.1, 24.0 and 21.0
    # (n=2 N=24 conformal) and 8.0, 16.1 and 11.0 (n=3 N=8 flat); slabs of
    # 2^15 points measured 1.5, 10.0 and 5.2, and 1.9, 15.0 and 9.25.  The
    # outputs alone are 1, 8 (B' 4, table 3, residual 1) and 4 at n=2, and
    # 1, 13 and 9 at n=3.  Written over the B' it is given, the linearization
    # has no output and peaks at 1.50 and 1.38: its slab scratch (1/3 and
    # 9/8) and the slab temporaries of the congruence and the scaling.  Its
    # bounds are these plus half a grid array.
    @pytest.mark.parametrize("n, N, kind, bounds", [
        (2, 24, "conformal", (2.0, 10.5, 2.0)),
        (3, 8, "flat", (2.5, 15.5, 1.875)),
    ], ids=["n2-conformal", "n3-flat"])
    def test_transient_memory(self, n, N, kind, bounds):
        grid = TorusGrid(n, N)
        omega = (MetricField.flat(grid) if kind == "flat" else MetricField.conformal(
            grid, np.eye(n), [((1, 0, 0, 0), 1.2, 0.0), ((0, 0, 1, 1), 0.0, 0.6)]))
        eq = _Equation(omega, 2, 1.0)
        u, harr = _cone_state(grid).data, np.zeros(grid.shape)
        state = eq.evaluate(u, harr)
        assert state.in_cone
        b = state.b.copy()
        lin = linearization(state.b, state.table, omega, 2, 1.0)
        v = np.random.default_rng(0).normal(size=grid.shape)
        fresh = []  # linearization writes over the B' it is given
        calls = (lambda: apply_linearization_array(lin, v),
                 lambda: eq.evaluate(u, harr),
                 lambda: linearization(fresh.pop(), state.table, omega, 2, 1.0))
        peaks = []
        for call in calls:
            fresh[:] = [b.copy()]  # made before tracing starts
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] / (8 * grid.points))
            finally:
                tracemalloc.stop()
        assert all(p <= bound for p, bound in zip(peaks, bounds)), peaks


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
        for m, n in [(2, 3), (3, 3), (2, 2), (4, 5), (5, 6)]:
            g = random_cone_form(rng, n, m)
            got = mixed_product([g] * m, np.eye(n), m)
            want = sigma_of_form(g, np.eye(n), m)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_poly_lem_bound_explicit_constant(self):
        rng = np.random.default_rng(10)
        for m, n in [(2, 3), (3, 4), (4, 5)]:
            const = polarization_constant(m)
            for _ in range(100):
                gs = [random_cone_form(rng, n, m) for _ in range(m)]
                lhs = abs(mixed_product(gs, np.eye(n), m))
                total = gs[0].copy()
                for g in gs[1:]:
                    total = total + g
                rhs = const * sigma_of_form(total, np.eye(n), m)
                assert lhs <= rhs + 1e-10 * max(1.0, rhs)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_sigma_per_nonempty_subset(self, m, monkeypatch):
        import hessianlab.hessop as hessop

        calls = []
        real = hessop.sigma_of_form

        def counted(gamma, omega_form, k):
            calls.append(k)
            return real(gamma, omega_form, k)

        monkeypatch.setattr(hessop, "sigma_of_form", counted)
        rng = np.random.default_rng(11)
        mixed_product([random_cone_form(rng, 4, m) for _ in range(m)], np.eye(4), m)
        assert calls == [m] * (2**m - 1)

    def test_polarization_constant_values(self):
        # (2^m - 1) / m!: the 1-norm of the identity's coefficient row
        got = [polarization_constant(m) for m in range(1, 5)]
        assert got == pytest.approx([1.0, 1.5, 7.0 / 6.0, 0.625], rel=1e-15)

    def test_wrong_count(self):
        with pytest.raises(InputError):
            mixed_product([np.eye(3)], np.eye(3), 2)

    def test_rejects_non_hermitian_omega(self):
        omega = np.eye(3)
        omega[0, 1] = 0.5
        with pytest.raises(InputError):
            sigma_of_form(np.eye(3), omega, 2)
        with pytest.raises(InputError):
            mixed_product([np.eye(3)] * 2, omega, 2)

    @pytest.mark.parametrize("gammas, m, match", [
        ([], 0, "m >= 1"),
        ([np.eye(2)] * 3, 3, "out of range"),
        ([np.eye(3), np.eye(2)], 2, "common dimension"),
        ([np.eye(2), np.eye(3)], 2, "common dimension"),
    ], ids=["m0", "m-above-n", "dims-3-2", "dims-2-3"])
    def test_rejects_bad_degree_or_dimensions(self, gammas, m, match):
        with pytest.raises(InputError, match=match):
            mixed_product(gammas, np.eye(3), m)

    @pytest.mark.parametrize("m", [0, 4, -1])
    def test_sigma_of_form_m_out_of_range(self, m):
        with pytest.raises(InputError, match="out of range"):
            sigma_of_form(np.eye(3), np.eye(3), m)

    def test_rejects_omega_shape_mismatch(self):
        with pytest.raises(InputError):
            sigma_of_form(np.eye(3), np.eye(2), 2)
        with pytest.raises(InputError):
            mixed_product([np.eye(3)] * 2, np.eye(2), 2)
