"""Grids, fields, stencils: symbolic-differentiation oracles and exactness."""

import tracemalloc
import warnings

import numpy as np
import pytest

from hessianlab import geometry
from hessianlab.errors import InputError
from hessianlab.geometry import (
    MetricField,
    ScalarField,
    TorusGrid,
    _phase,
    _stencils,
    analytic_complex_hessian,
    analytic_hessian_layout,
    layout_of_complex,
    make_field,
    read_field,
    write_field,
)
from hessianlab.hessop import sigma_m
from oracles import (
    complex_hessian,
    complex_hessian_layout,
    full_phase,
    mixed_terms,
    reference_complex_hessian,
    reference_field,
)


def grid2(N=16):
    return TorusGrid(2, N)


class TestTorusGrid:
    def test_spacing(self):
        g = grid2()
        assert g.h == pytest.approx(2 * np.pi / 16)

    def test_rejects_odd_or_small_N(self):
        with pytest.raises(InputError):
            TorusGrid(2, 6)
        with pytest.raises(InputError):
            TorusGrid(2, 15)

    def test_rejects_unsupported_dimension(self):
        with pytest.raises(InputError):
            TorusGrid(1, 16)
        with pytest.raises(InputError):
            TorusGrid(4, 8)

    def test_memory_cap(self):
        with pytest.raises(InputError):
            TorusGrid(3, 12)  # ~3e6 points exceeds the default cap
        TorusGrid(3, 10)  # intended desk-scale maximum

    def test_memory_cap_is_not_part_of_the_grid(self, tmp_path):
        # a field read under a raised cap lives on the default grid
        big = TorusGrid(2, 8, memory_cap=4 << 30)
        assert big == TorusGrid(2, 8)
        assert hash(big) == hash(TorusGrid(2, 8))
        path = tmp_path / "u.field"
        write_field(path, ScalarField.zeros(TorusGrid(2, 8)))
        u, _ = read_field(path, memory_cap=4 << 30)
        sigma_m(u, MetricField.flat(TorusGrid(2, 8)), 1)


class TestMakeField:
    def test_empty_spec_zero(self):
        u = make_field(grid2(), [])
        assert np.all(u.data == 0.0)

    def test_cosine_samples_exactly(self):
        g = grid2()
        u = make_field(g, [((1, 0, 0, 0), 1.0, 0.0)])
        x = g.h * np.arange(16)
        np.testing.assert_array_equal(u.data[:, 0, 0, 0], np.cos(x))

    def test_linearity(self):
        g = grid2()
        t1 = [((1, 0, 0, 0), 0.5, 0.0)]
        t2 = [((0, 0, 1, 0), 0.0, 0.25)]
        s = make_field(g, t1 + t2)
        np.testing.assert_array_equal(
            s.data, make_field(g, t1).data + make_field(g, t2).data
        )

    def test_aliasing_guard(self):
        g = grid2()
        with pytest.raises(InputError):
            make_field(g, [((5, 0, 0, 0), 1.0, 0.0)])  # 5 > 16/4

    def test_wrong_length_frequency(self):
        with pytest.raises(InputError):
            make_field(grid2(), [((1, 0), 1.0, 0.0)])

    @pytest.mark.parametrize("coef", [np.inf, np.nan])
    def test_rejects_non_finite_coefficient(self, coef):
        with pytest.raises(InputError, match="finite"):
            make_field(grid2(), [((1, 0, 0, 0), coef, 0.0)])

    def test_rejects_overflowing_sum(self):
        # each coefficient is finite, their sum is not: the InputError is the
        # one report, with no overflow warning ahead of it
        terms = [((0, 0, 0, 0), 1e308, 0.0), ((0, 0, 0, 0), 1e308, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="field values must be finite"):
                make_field(grid2(), terms)

    def test_transient_memory(self):
        # tracemalloc peak of make_field at n=3 N=8 on the manufactured
        # recipe, in grid arrays: terms on their sub-grids measured 1.13
        # (the field and the finiteness mask); full-grid phases peaked at 4.03
        g = TorusGrid(3, 8)
        terms = mixed_terms(3)
        tracemalloc.start()
        try:
            make_field(g, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * g.points) <= 1.5

    @pytest.mark.parametrize("shape", [(16, 16, 16), (8, 8, 8, 8), (16,) * 6])
    def test_field_shape_must_match_grid(self, shape):
        with pytest.raises(InputError, match="does not match"):
            ScalarField(grid2(), np.zeros(shape))


class TestComplexHessian:
    def test_constant_field_zero(self):
        u = ScalarField(grid2(), 3.5 * np.ones(grid2().shape))
        h = complex_hessian(u)
        assert np.max(np.abs(h)) == 0.0

    def test_cosine_oracle(self):
        # u = cos(x_1): u_{1 1bar} = -cos(x_1)/4 with the discrete factor
        g = grid2()
        u = make_field(g, [((1, 0, 0, 0), 1.0, 0.0)])
        h = complex_hessian(u)
        ch = (2 - 2 * np.cos(g.h)) / g.h**2  # discrete second-derivative factor
        want = -0.25 * ch * np.cos(g.axis_coordinate(0)) * np.ones(g.shape)
        assert np.max(np.abs(h[..., 0, 0].real - want)) < 1e-13
        assert np.max(np.abs(h[..., 0, 0] - want)) < 1e-13  # exactly real diagonal
        for j, k in [(0, 1), (1, 1)]:
            assert np.max(np.abs(h[..., j, k])) < 1e-13
        # and the continuum value within O(h^2)
        cont = -0.25 * np.cos(g.axis_coordinate(0)) * np.ones(g.shape)
        assert np.max(np.abs(h[..., 0, 0].real - cont)) < 0.3 * g.h**2

    def test_mixed_term_oracle(self):
        # u = sin(x_1) sin(y_2): u_{1 2bar} = (i/4) cos(x_1) cos(y_2) + O(h^2)
        g = grid2()
        x1 = g.axis_coordinate(0)
        y2 = g.axis_coordinate(3)
        u = ScalarField(g, np.sin(x1) * np.sin(y2) * np.ones(g.shape))
        h = complex_hessian(u)
        want = 0.25 * np.cos(x1) * np.cos(y2) * np.ones(g.shape)
        assert np.max(np.abs(h[..., 0, 1].imag - want)) < 0.6 * g.h**2
        assert np.max(np.abs(h[..., 0, 1].real)) < 1e-13
        np.testing.assert_array_equal(h[..., 1, 0], np.conj(h[..., 0, 1]))

    def test_hermitian_exact(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            g = TorusGrid(n, 8)
            u = ScalarField(g, rng.normal(size=g.shape))
            h = complex_hessian(u)
            assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2))), n

    def test_translation_equivariance_exact(self):
        rng = np.random.default_rng(1)
        for n in (2, 3):
            g = TorusGrid(n, 8)
            data = rng.normal(size=g.shape)
            for axis in (0, 2 * n - 1):
                h1 = complex_hessian(ScalarField(g, np.roll(data, 1, axis=axis)))
                h2 = np.roll(complex_hessian(ScalarField(g, data)), 1, axis=axis)
                assert np.array_equal(h1, h2), (n, axis)

    @pytest.mark.parametrize("n", [2, 3])
    def test_discrete_symbol_exact(self, n):
        # On a trigonometric polynomial the stencil is exact against the
        # discrete symbol: k_a k_b of the continuum Hessian becomes
        # (2 - 2 cos(k_a h)) / h^2 on the diagonal, sin(k_a h) sin(k_b h) / h^2
        # off it.  Written out here independently of the stencil code.
        g = TorusGrid(n, 8)
        h = g.h
        freqs = {
            2: [(1, 1, 1, 1), (2, -1, 0, 1), (0, 1, -2, 1), (1, 0, 1, 0), (0, 2, 0, -1)],
            3: [(1, 1, 1, 1, 1, 1), (2, -1, 0, 1, -1, 0), (0, 1, -2, 1, 0, 2),
                (1, 0, 1, 0, 1, 0), (0, 2, 0, -1, 1, -1)],
        }[n]
        coeffs = [(0.7, -0.2), (0.0, 0.4), (0.3, 0.5), (0.6, 0.0), (0.0, 0.9)]
        terms = [(k, c, s) for k, (c, s) in zip(freqs, coeffs)]
        want = np.zeros(g.shape + (n, n), dtype=complex)
        for kvec, c, s in terms:
            phase = sum(k * g.axis_coordinate(a) for a, k in enumerate(kvec))
            base = -(c * np.cos(phase) + s * np.sin(phase)) * np.ones(g.shape)

            def kk(a, b):
                if a == b:
                    return (2.0 - 2.0 * np.cos(kvec[a] * h)) / h**2
                return np.sin(kvec[a] * h) * np.sin(kvec[b] * h) / h**2

            for j in range(n):
                xj, yj = 2 * j, 2 * j + 1
                for k in range(n):
                    xk, yk = 2 * k, 2 * k + 1
                    re = 0.25 * (kk(xj, xk) + kk(yj, yk))
                    im = 0.25 * (kk(xj, yk) - kk(yj, xk))
                    want[..., j, k] += (re + 1j * im) * base
        got = complex_hessian(make_field(g, terms))
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_complex_view_of_layout_bit_exact(self, n):
        # the complex field is a view of the real layout; the reference is
        # assembled entry by entry from the same stencil terms as a complex
        # field, and the layout is read back from the view
        g = TorusGrid(n, 8)
        data = np.random.default_rng(n).normal(size=g.shape)
        want = np.zeros(g.shape + (n, n), dtype=complex)
        for j, k, d_re, d_im in _stencils(data):
            if d_im is None:
                want.real[..., j, j] = d_re * (0.25 / (g.h * g.h))
                continue
            want.real[..., j, k] = want.real[..., k, j] = d_re * (0.0625 / (g.h * g.h))
            want.imag[..., j, k] = d_im * (0.0625 / (g.h * g.h))
            want.imag[..., k, j] = -want.imag[..., j, k]
        got = complex_hessian(ScalarField(g, data))
        assert np.array_equal(got, want)
        assert np.array_equal(layout_of_complex(got), complex_hessian_layout(data, g))

    def test_second_order_convergence(self):
        terms = [((1, 0, 0, 0), 0.7, 0.0), ((0, 1, -1, 0), 0.0, 0.4),
                 ((0, 0, 1, 1), 0.3, 0.0)]
        errs = []
        for N in (8, 16):
            g = TorusGrid(2, N)
            u = make_field(g, terms)
            got = complex_hessian(u)
            want = analytic_complex_hessian(g, terms)
            errs.append(np.max(np.abs(got - want)))
        ratio = errs[0] / errs[1]
        assert 3.6 <= ratio <= 4.4

    def test_analytic_hessian_matches_hand_formula(self):
        # independent check of the oracle itself on cos(x_1)
        g = grid2()
        hess = analytic_complex_hessian(g, [((1, 0, 0, 0), 1.0, 0.0)])
        want = -0.25 * np.cos(g.axis_coordinate(0)) * np.ones(g.shape)
        assert np.max(np.abs(hess[..., 0, 0] - want)) < 1e-14
        assert np.max(np.abs(hess[..., 0, 1])) == 0.0


GRIDS = [(2, 8), (2, 16), (3, 8)]


class TestSubGridTerms:
    """The sub-grid route is bit-identical to the whole-grid, entry-by-entry
    complex construction kept in oracles."""

    @pytest.mark.parametrize("n, N", GRIDS)
    def test_phase_broadcasts_to_full_phase(self, n, N):
        g = TorusGrid(n, N)
        for kvec, _, _ in mixed_terms(n):
            phase = _phase(g, kvec)
            assert phase.shape == tuple(N if k else 1 for k in kvec)
            assert np.array_equal(np.broadcast_to(phase, g.shape), full_phase(g, kvec))

    @pytest.mark.parametrize("n, N", GRIDS)
    def test_make_field(self, n, N):
        g = TorusGrid(n, N)
        assert np.array_equal(make_field(g, mixed_terms(n)).data,
                              reference_field(g, mixed_terms(n)))

    @pytest.mark.parametrize("n, N", GRIDS)
    def test_analytic_hessian(self, n, N):
        g = TorusGrid(n, N)
        want = reference_complex_hessian(g, mixed_terms(n))
        assert np.array_equal(analytic_hessian_layout(g, mixed_terms(n)),
                              layout_of_complex(want))
        assert np.array_equal(analytic_complex_hessian(g, mixed_terms(n)), want)


def _roll_stencils(v, n):
    """_stencils from np.roll, with the same association order: ring =
    -4v + (v(+x) + v(-x)) + (v(+y) + v(-y)), cross = difference along x_k
    of the difference along x_j."""

    def diff(x, a):
        return np.roll(x, -1, axis=a) - np.roll(x, 1, axis=a)

    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        yield j, j, (-4.0 * v + (np.roll(v, -1, axis=xj) + np.roll(v, 1, axis=xj))
                     + (np.roll(v, -1, axis=yj) + np.roll(v, 1, axis=yj))), None
        for k in range(j + 1, n):
            xk, yk = 2 * k, 2 * k + 1
            yield (j, k, diff(diff(v, xj), xk) + diff(diff(v, yj), yk),
                   diff(diff(v, xj), yk) - diff(diff(v, yj), xk))


class TestFlatOffsets:
    """The periodic differences taken from flat offsets of the field are
    bit-identical to np.roll ones in the same association order, so a
    change of order fails here instead of moving every output by round-off.
    The ring's order was changed here on purpose once, from
    (((-4v + a) + b) + c) + d to (-4v + (a + b)) + (c + d), when each
    neighbour sum a + b began to come from _difference with np.add."""

    CASES = [(2, 8), (2, 10), (3, 8)]

    @pytest.mark.parametrize("n, N", CASES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_stencils_match_roll(self, n, N, order, monkeypatch):
        # on the whole grid, and on slabs of one row and of three rows (N = 8
        # in 3 + 3 + 2, N = 10 in 3 + 3 + 3 + 1), whose first and last slabs
        # read the rows that wrap along axis 0
        data = np.asarray(np.random.default_rng(N).normal(size=(N,) * (2 * n)), order=order)
        want = list(_roll_stencils(data, n))
        for rows_per_slab in (None, 1, 3):
            if rows_per_slab is None:
                slabs = [slice(None)]
                got = [list(_stencils(data))]
            else:
                monkeypatch.setattr(geometry, "_SLAB_POINTS", rows_per_slab * N ** (2 * n - 1))
                slabs = geometry._slabs(data.shape)
                assert slabs[0].start == 0 and slabs[-1].stop == N and len(slabs) > 1
                got = [list(_stencils(data, rows=rows)) for rows in slabs]
            for rows, items in zip(slabs, got):
                assert [g[:2] for g in items] == [w[:2] for w in want]
                for (_, _, g_re, g_im), (_, _, w_re, w_im) in zip(items, want):
                    assert np.array_equal(g_re, w_re[rows])
                    assert (g_im is None and w_im is None) or np.array_equal(g_im, w_im[rows])

    def test_pass_transient_memory(self):
        # tracemalloc peak of one full pass at n=3 N=8, each yielded field
        # consumed and dropped: measured 6.1 grid arrays (scratch, dx, dy,
        # and a cross pair while the next is made); slices of a wrap-padded
        # copy peaked at 14.0
        data = np.random.default_rng(3).normal(size=(8,) * 6)
        tracemalloc.start()
        try:
            for item in _stencils(data):
                for x in item[2:]:
                    if x is not None:
                        float(np.sum(x))
                del item, x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / data.nbytes <= 7.0


def _one_point_skewed(g):
    """A field of identity forms but one, whose upper entry is not mirrored;
    like every per-point form, refused by its shape before any other check."""
    form = np.ones(g.shape + (2, 2)) * np.eye(2)
    form[1, 2, 3, 4, 0, 1] = 0.5
    return form


def _skewed_base():
    base = np.diag([2.0, 3.0, 4.0]).astype(complex)
    base[0, 1], base[1, 0] = 0.4 + 0.3j, 0.4 - 0.3j
    return base


class TestMetricField:
    def test_flat(self):
        om = MetricField.flat(grid2(), scale=2.0)
        assert om.exp_phi is None
        np.testing.assert_array_equal(om.form, 2.0 * np.eye(2))

    @pytest.mark.parametrize("scale", [-1.0, 0.0, np.nan, np.inf])
    def test_flat_rejects_bad_scale(self, scale):
        # a non-positive scale gives an indefinite or zero form
        with pytest.raises(InputError):
            MetricField.flat(grid2(), scale=scale)

    def test_flat_rejects_subnormal_scale(self):
        # 1e-320 I clears the positive-definite floor, which underflows to 0,
        # but its congruence maps, 1/scale, overflow: no warning, then the
        # error an e^phi that underflows gets
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^metric is not positive definite$"):
                MetricField.flat(grid2(), 1e-320)

    def test_constant_rejects_indefinite(self):
        with pytest.raises(InputError):
            MetricField(grid2(), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("make, match", [
        (lambda g: MetricField(g, np.eye(3)), "dimension"),
        (lambda g: MetricField(g, np.ones(g.shape + (3, 3)) * np.eye(3)), "shape"),
        (lambda g: MetricField(g, np.ones(g.shape)), "shape"),
        (lambda g: MetricField(g, np.ones(g.shape + (2, 2)) * np.diag([1.0, -1.0])),
         r"shape \(8, 8, 8, 8, 2, 2\)"),
        (lambda g: MetricField(g, np.ones(g.shape + (2, 2))), "shape"),
        (lambda g: MetricField(g, np.eye(3)), "shape"),
        (lambda g: MetricField(g, [[1.0, 0.5], [0.0, 1.0]]), "Hermitian"),
        (lambda g: MetricField(g, [[1.0, 0.0], [0.0, 1.0 + 1e-9j]]), "Hermitian"),
        (lambda g: MetricField(g, [[1.0, np.nan], [0.0, 1.0]]), "finite"),
        (lambda g: MetricField(g, _one_point_skewed(g)), "shape"),
        (lambda g: MetricField(g, [[1.0, 1e308], [-1e308, 1.0]]), "Hermitian"),
        (lambda g: MetricField(g, [[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]]), "Hermitian"),
    ], ids=["constant-3x3", "variable-3x3", "variable-scalar", "variable-indefinite",
            "variable-singular", "constructor-3x3", "constant-upper-only",
            "complex-diagonal", "nan-upper", "variable-one-point",
            "overflowing-deviation", "overflowing-diagonal"])
    def test_rejects_bad_form(self, make, match):
        with pytest.raises(InputError, match=match):
            make(TorusGrid(2, 8))

    def test_conformal_positive_and_torsion(self):
        g = TorusGrid(2, 8)
        om = MetricField.conformal(g, np.eye(2), [((1, 0, 0, 0), 0.2, 0.0)])
        assert om.exp_phi is not None
        w = np.linalg.eigvalsh(om.form)
        assert np.min(w) > 0.0

    @pytest.mark.parametrize("phi, scale, match", [
        (((0, 0, 0, 0), 800.0, 0.0), 1.0, "^metric must be finite$"),
        (((0, 0, 0, 0), -800.0, 0.0), 1.0, "^metric is not positive definite$"),
        (((1, 0, 0, 0), 800.0, 0.0), 1.0, "^metric must be finite$"),
        (((0, 0, 0, 0), 709.0, 0.0), 4.0, "^metric must be finite$"),
    ], ids=["overflow", "underflow", "mixed", "product-overflow"])
    def test_conformal_rejects_what_its_form_fails(self, phi, scale, match):
        # e^phi is inf, 0, or both on one grid, or finite while e^phi 4 I is
        # not: rejected with the messages a constant form gets, finiteness
        # first, and no numpy warning comes before the InputError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=match):
                MetricField.conformal(TorusGrid(2, 8), scale * np.eye(2), [phi])

    @pytest.mark.parametrize("make", [
        lambda: MetricField.flat(TorusGrid(2, 8)),
        lambda: MetricField.flat(TorusGrid(2, 8), scale=1e308),
        lambda: MetricField(TorusGrid(3, 8), _skewed_base()),
        lambda: MetricField.conformal(TorusGrid(3, 8), _skewed_base(),
                                      [((1, 0, 0, 0, 0, 0), 0.3, 0.0)]),
        lambda: MetricField.conformal(TorusGrid(2, 8), np.eye(2), [((0,) * 4, -745.0, 0.0)]),
        lambda: MetricField.conformal(TorusGrid(2, 8), np.eye(2), [((0,) * 4, 709.5, 0.0)]),
    ], ids=["flat", "flat-1e308", "skewed", "skewed-conformal", "subnormal",
            "trace-overflow"])
    def test_admitted_metric_is_checked_at_every_point(self, make):
        # the metric is checked as its base and the scalar e^phi; every point
        # of omega must still be finite, exactly Hermitian and above the
        # floor 1e-12 sum(d / n) of its diagonal d, whose sum can overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            om = make()
        n = om.grid.n
        forms = np.reshape(om.form, (-1, n, n))
        assert np.all(np.isfinite(forms))
        np.testing.assert_array_equal(forms, np.conj(np.swapaxes(forms, -1, -2)))
        diag = np.diagonal(forms, axis1=-2, axis2=-1).real
        floor = 1e-12 * np.sum(diag / n, axis=-1)
        assert np.all(np.linalg.eigvalsh(forms)[:, 0] > floor)

    def test_conformal_holds_one_float_per_point(self):
        # a skewed constant base, its two (n^2, n^2) factor maps and e^phi:
        # no per-point form, so from N = 8 to 10 every array held together
        # grows by at most 8 bytes per added point
        def held(N):
            g = TorusGrid(3, N)
            om = MetricField.conformal(g, _skewed_base(), [((1, 0, 0, 0, 0, 0), 0.3, 0.0)])
            assert om.factor is not None and om.exp_phi.shape == g.shape
            arrays = [v for v in vars(om).values() if isinstance(v, np.ndarray)]
            arrays += list(om.factor)
            return g.points, sum(a.nbytes for a in arrays), om

        (p8, b8, om), (p10, b10, _) = held(8), held(10)
        assert b10 - b8 <= 8 * (p10 - p8)
        assert om.form.shape == om.grid.shape + (3, 3)


class TestFieldFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        g = TorusGrid(2, 8)
        u = ScalarField(g, rng.normal(size=g.shape))
        path = tmp_path / "u.field"
        write_field(path, u, kind="u")
        v, kind = read_field(path)
        assert kind == "u"
        assert v.grid == g
        np.testing.assert_array_equal(v.data, u.data)

    @pytest.mark.parametrize("n", [2, 3])
    def test_read_field_is_c_ordered(self, tmp_path, n):
        # the file is written in Fortran order; the field read back is a
        # C-ordered array, so no stencil pass copies it again
        g = TorusGrid(n, 8)
        u = ScalarField(g, np.random.default_rng(n).normal(size=g.shape))
        path = tmp_path / "u.field"
        write_field(path, u)
        v, _ = read_field(path)
        assert v.data.flags.c_contiguous and v.data.flags.writeable
        np.testing.assert_array_equal(v.data, u.data)

    def test_length_validation(self, tmp_path):
        path = tmp_path / "bad.field"
        with open(path, "wb") as fh:
            fh.write(b'{"n": 2, "N": 8, "kind": "u"}\n')
            fh.write(b"\x00" * 16)
        with pytest.raises(InputError):
            read_field(path)

    def test_oversized_payload_is_not_read(self, tmp_path):
        # an n=2 N=8 header (32 KiB of payload) before a sparse 64 MiB
        # payload: reading it whole before the length check peaked at
        # 128 MiB; the grid from the header bounds the read to 32 KiB + 1
        path = tmp_path / "big.field"
        with open(path, "wb") as fh:
            fh.write(b'{"n": 2, "N": 8, "kind": "u"}\n')
            fh.seek(64 << 20, 1)
            fh.write(b"\x00")
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="payload"):
                read_field(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad2.field"
        path.write_bytes(b"not json\n")
        with pytest.raises(InputError):
            read_field(path)

    @pytest.mark.parametrize("header", [
        b"[1]",
        b"null",
        b'"x"',
        b'{"n": 2.7, "N": 8, "kind": "u"}',
        b'{"n": 2, "N": 8.0, "kind": "u"}',
    ])
    def test_header_needs_object_with_integer_sizes(self, tmp_path, header):
        # a payload that fits n=2 N=8, so only the header can be at fault
        path = tmp_path / "bad3.field"
        path.write_bytes(header + b"\n" + np.zeros(8**4).tobytes())
        with pytest.raises(InputError):
            read_field(path)

    def test_rejects_non_finite_payload(self, tmp_path):
        g = TorusGrid(2, 8)
        data = np.zeros(g.shape)
        data[1, 2, 3, 4] = np.nan
        path = tmp_path / "nan.field"
        write_field(path, ScalarField(g, data))
        with pytest.raises(InputError):
            read_field(path)

    def test_header_length_limit(self, tmp_path):
        # valid JSON padded past the header limit, and a file with no newline
        g = TorusGrid(2, 8)
        payload = np.zeros(g.points).tobytes()
        long_header = b'{"n": 2, "N": 8, "kind": "u"}' + b" " * 8192 + b"\n"
        path = tmp_path / "long.field"
        path.write_bytes(long_header + payload)
        with pytest.raises(InputError):
            read_field(path)
        path.write_bytes(b"{" + b"0" * 65536)
        with pytest.raises(InputError):
            read_field(path)

    def test_x1_fastest_layout(self, tmp_path):
        g = TorusGrid(2, 8)
        u = make_field(g, [((1, 0, 0, 0), 1.0, 0.0)])  # varies along x_1 only
        path = tmp_path / "u.field"
        write_field(path, u)
        with open(path, "rb") as fh:
            fh.readline()
            payload = np.frombuffer(fh.read(), dtype="<f8")
        # first 8 payload entries sweep x_1
        np.testing.assert_allclose(payload[:8], np.cos(g.h * np.arange(8)))
