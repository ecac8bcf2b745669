"""Grids, fields, stencils: symbolic-differentiation oracles and exactness."""

import numpy as np
import pytest

from hessianlab.errors import InputError
from hessianlab.geometry import (
    MetricField,
    ScalarField,
    TorusGrid,
    analytic_complex_hessian,
    complex_hessian,
    gradient_sup,
    make_field,
    read_field,
    write_field,
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
        g = TorusGrid(2, 8)
        u = ScalarField(g, rng.normal(size=g.shape))
        h = complex_hessian(u)
        assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))

    def test_translation_equivariance_exact(self):
        rng = np.random.default_rng(1)
        g = TorusGrid(2, 8)
        data = rng.normal(size=g.shape)
        h1 = complex_hessian(ScalarField(g, np.roll(data, 1, axis=0)))
        h2 = np.roll(complex_hessian(ScalarField(g, data)), 1, axis=0)
        assert np.array_equal(h1, h2)

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


class TestGradientSup:
    def test_zero_field(self):
        assert gradient_sup(ScalarField.zeros(grid2())) == 0.0

    def test_sine_within_h2(self):
        g = grid2()
        u = make_field(g, [((1, 0, 0, 0), 0.0, 1.0)])
        # discrete max gradient of sin is sin(h)/h
        assert gradient_sup(u) == pytest.approx(np.sin(g.h) / g.h, abs=1e-12)
        assert abs(gradient_sup(u) - 1.0) < g.h**2

    def test_amplitude_linearity(self):
        g = grid2()
        u1 = make_field(g, [((1, 0, 0, 0), 0.0, 1.0)])
        u2 = make_field(g, [((1, 0, 0, 0), 0.0, 2.0)])
        assert gradient_sup(u2) == pytest.approx(2 * gradient_sup(u1))


class TestMetricField:
    def test_flat(self):
        om = MetricField.flat(grid2(), scale=2.0)
        assert om.constant
        np.testing.assert_array_equal(om.form, 2.0 * np.eye(2))
        assert om.torsion_sup() == 0.0

    def test_constant_rejects_indefinite(self):
        with pytest.raises(InputError):
            MetricField.constant_form(grid2(), np.diag([1.0, -1.0]))

    def test_conformal_positive_and_torsion(self):
        g = TorusGrid(2, 8)
        om = MetricField.conformal(g, np.eye(2), [((1, 0, 0, 0), 0.2, 0.0)])
        assert not om.constant
        assert om.torsion_sup() > 0.0
        w = np.linalg.eigvalsh(om.form)
        assert np.min(w) > 0.0


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

    def test_length_validation(self, tmp_path):
        path = tmp_path / "bad.field"
        with open(path, "wb") as fh:
            fh.write(b'{"n": 2, "N": 8, "kind": "u"}\n')
            fh.write(b"\x00" * 16)
        with pytest.raises(InputError):
            read_field(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad2.field"
        path.write_bytes(b"not json\n")
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
