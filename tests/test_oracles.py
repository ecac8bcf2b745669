"""The test eigensolve oracle and the metric checks: characteristic-polynomial
oracles and invariants."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hessianlab
from hessianlab.errors import InputError
from hessianlab.geometry import (
    MetricField,
    TorusGrid,
    check_hermitian,
    check_positive_definite,
)
from hessianlab.symfunc import cone_mask
from oracles import generalized_eigh


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_spd(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T + np.eye(n)


class TestIdentityMetric:
    def test_identity(self):
        values, _ = generalized_eigh(np.eye(3), np.eye(3))
        np.testing.assert_allclose(values, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        values, _ = generalized_eigh(np.diag([5.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(values, [5.0, -2.0])

    def test_characteristic_polynomial_oracle(self):
        # [[2, i], [-i, 2]]: (2 - lam)^2 - 1 = 0 -> lam = 3, 1
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        values, _ = generalized_eigh(a, np.eye(2))
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)

    def test_values_sorted_non_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values, _ = generalized_eigh(random_hermitian(rng, 5), np.eye(5))
            assert np.all(np.diff(values) <= 1e-12)

    def test_frame_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(1)
        for n in range(2, 9):
            a = random_hermitian(rng, n, scale=3.0)
            values, v = generalized_eigh(a, np.eye(n))
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
            rec = v @ np.diag(values) @ v.conj().T
            assert np.max(np.abs(rec - a)) < 1e-10 * max(1.0, np.max(np.abs(a)))

    def test_matches_plain_eigensolve(self):
        rng = np.random.default_rng(5)
        g = random_hermitian(rng, 6)
        values, _ = generalized_eigh(g, np.eye(6))
        np.testing.assert_allclose(values, np.linalg.eigvalsh(g)[::-1], atol=1e-10)


class TestGeneralizedEigh:
    def test_g_equals_omega(self):
        rng = np.random.default_rng(2)
        omega = random_spd(rng, 4)
        values, _ = generalized_eigh(omega, omega)
        np.testing.assert_allclose(values, np.ones(4), atol=1e-10)

    def test_scaling(self):
        rng = np.random.default_rng(3)
        omega = random_spd(rng, 3)
        values, _ = generalized_eigh(2.0 * omega, omega)
        np.testing.assert_allclose(values, 2.0 * np.ones(3), atol=1e-10)

    def test_diagonal_ratio(self):
        values, _ = generalized_eigh(np.diag([4.0, 1.0]), np.diag([2.0, 1.0]))
        np.testing.assert_allclose(values, [2.0, 1.0], atol=1e-12)

    def test_frame_metric_orthonormal(self):
        rng = np.random.default_rng(4)
        g = random_hermitian(rng, 5)
        omega = random_spd(rng, 5)
        values, frame = generalized_eigh(g, omega)
        gram = frame.conj().T @ omega @ frame
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10
        # eigen equation g e = lam omega e
        resid = g @ frame - omega @ frame @ np.diag(values)
        assert np.max(np.abs(resid)) < 1e-9 * max(1.0, np.max(np.abs(g)))

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = random_hermitian(rng, 4)
            omega = random_spd(rng, 4)
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            a, _ = generalized_eigh(g, omega)
            b, _ = generalized_eigh(q.conj().T @ g @ q, q.conj().T @ omega @ q)
            scale = max(1.0, np.max(np.abs(a)))
            assert np.max(np.abs(a - b)) < 1e-9 * scale

    def test_trace_and_determinant_reconstruct(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_hermitian(rng, 5)
            omega = random_spd(rng, 5)
            lam, _ = generalized_eigh(g, omega)
            tr = np.trace(np.linalg.inv(omega) @ g).real
            det = (np.linalg.det(g) / np.linalg.det(omega)).real
            assert abs(lam.sum() - tr) < 1e-9 * max(1.0, abs(tr))
            assert abs(np.prod(lam) - det) < 1e-9 * max(1.0, abs(det))


class TestRelativeCone:
    """Cone membership of the spectrum relative to a metric."""

    def test_identity_all_m(self):
        values, _ = generalized_eigh(np.eye(3), np.eye(3))
        for m in (1, 2, 3):
            assert cone_mask(values, m)

    def test_matches_symfunc_example(self):
        values, _ = generalized_eigh(np.diag([3.0, 2.0, -1.0]), np.eye(3))
        assert cone_mask(values, 2)

    def test_negative_example(self):
        values, _ = generalized_eigh(np.diag([3.0, 1.0, -1.0]), np.eye(3))
        assert not cone_mask(values, 2)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_omega_itself_positive(self, n, seed):
        rng = np.random.default_rng(seed)
        omega = random_spd(rng, n)
        values, _ = generalized_eigh(omega, omega)
        for m in range(1, n + 1):
            assert cone_mask(values, m)


class TestMetricChecks:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError):
            check_hermitian(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_rejects_oversize(self):
        with pytest.raises(InputError):
            check_hermitian(np.eye(9))

    @pytest.mark.parametrize("a", [
        np.diag([np.nan, 1.0]),
        np.diag([np.inf, 1.0]),
        np.zeros((0, 0)),
    ], ids=["nan", "inf", "empty"])
    def test_rejects_non_finite_or_empty(self, a):
        with pytest.raises(InputError):
            check_hermitian(a)

    def test_rejects_indefinite_metric(self):
        with pytest.raises(InputError):
            check_positive_definite(np.diag([1.0, -1.0]))

    def test_floor_is_relative(self):
        # the least eigenvalue must exceed 1e-12 of the mean eigenvalue
        check_positive_definite(np.diag([1.0, 1e-11]))
        check_positive_definite(1e-20 * np.eye(2))

    @pytest.mark.parametrize("form", [
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.eye(9),
        np.diag([1.0, -1.0]),
        np.diag([1.0, 1e-13]),
    ], ids=["non-hermitian", "oversize", "indefinite", "below-floor"])
    def test_metric_constructors_reject(self, form):
        with pytest.raises(InputError):
            MetricField.conformal(TorusGrid(2, 8), form, [])

    def test_constant_metric_has_the_same_floor(self):
        # positive pivots alone would admit this form; the relative floor does not
        with pytest.raises(InputError):
            MetricField(TorusGrid(2, 8), np.diag([1.0, 1e-13]))
        MetricField(TorusGrid(2, 8), np.diag([1.0, 1e-11]))

    def test_variable_metric_has_the_same_floor(self):
        # one point below the floor of its own trace is rejected, as the same
        # constant form is; its factor would hold an entry of 1e7
        grid = TorusGrid(2, 8)
        form = np.broadcast_to(np.eye(2, dtype=complex), grid.shape + (2, 2)).copy()
        form[1, 2, 3, 4] = np.diag([1.0, 1e-10])
        MetricField(grid, form)
        form[1, 2, 3, 4] = np.diag([1.0, 1e-14])
        with pytest.raises(InputError, match="not positive definite"):
            MetricField(grid, form)


def test_every_export_resolves():
    for info in pkgutil.iter_modules(hessianlab.__path__):
        module = importlib.import_module(f"hessianlab.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"hessianlab.{info.name}.{name}"


def test_no_unused_import():
    # no linter ships with the project: a top-level import that a module
    # neither uses nor lists in __all__ fails here (iter_modules skips
    # __init__, which only re-exports)
    unused = []
    for info in pkgutil.iter_modules(hessianlab.__path__):
        module = importlib.import_module(f"hessianlab.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text())
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(module, "__all__", ()))
        unused += [f"{info.name}.{name}" for name in imported
                   if name not in used and name not in exported]
    assert not unused, unused


def test_no_dangling_private_name():
    # a module-level _name that no code in src/hessianlab reads (by name, as
    # an attribute or by import), its own module included, is dead code
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(hessianlab.__path__[0]).glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    dangling = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dangling += [f"{module}.{name}" for name in names
                         if name.startswith("_") and not name.startswith("__")
                         and name not in read]
    assert not dangling, dangling
