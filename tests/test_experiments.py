"""Experiment recipes: the fixed terms the drivers and the CLI build on,
and the exact manufactured data."""

import tracemalloc

import numpy as np
import pytest

from hessianlab.errors import InputError
from hessianlab.experiments import (
    default_density_terms,
    default_direction_terms,
    exact_sigma,
    manufactured_terms,
)
from hessianlab.geometry import TorusGrid, analytic_hessian_layout, make_field
from oracles import mixed_terms, reference_exact_sigma


class TestDefaultTerms:
    @pytest.mark.parametrize("n", [2, 3])
    def test_density_finite_and_positive(self, n):
        grid = TorusGrid(n, 8)
        f = make_field(grid, default_density_terms(n))
        assert np.all(np.isfinite(f.data)) and f.inf() > 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_direction_fits_the_grid(self, n):
        # stability-sweep perturbs the default density along this field
        psi = make_field(TorusGrid(n, 8), default_direction_terms(n))
        assert np.all(np.isfinite(psi.data)) and psi.sup() > 0.0


class TestManufacturedTerms:
    @pytest.mark.parametrize("n", [2, 3])
    def test_recipe_fits_the_grid(self, n):
        assert all(len(k) == 2 * n for k, _, _ in manufactured_terms(n, 0.25))

    @pytest.mark.parametrize("n", [1, 4])
    def test_no_recipe_outside_n_2_3(self, n):
        with pytest.raises(InputError, match="no manufactured recipe"):
            manufactured_terms(n, 0.25)


class TestExactSigma:
    @pytest.mark.parametrize("n, N", [(2, 8), (2, 16), (3, 8)])
    def test_bit_identical_to_complex_route(self, n, N):
        grid = TorusGrid(n, N)
        for terms in (mixed_terms(n), manufactured_terms(n, 0.25)):
            for m in range(1, n + 1):
                sigma, margin = exact_sigma(grid, terms, m)
                want_sigma, want_margin = reference_exact_sigma(grid, terms, m)
                assert np.array_equal(sigma, want_sigma) and margin == want_margin, m

    def test_transient_memory(self):
        # tracemalloc peak of exact_sigma at n=3 N=8, m=2, in grid arrays:
        # straight into the Hermitian layout measured 15.0 (the layout 9,
        # the S_k table 3, sigma 1 and the minor sums' temporaries); the
        # complex field, its copy plus I and the layout read back peaked at 36.1
        grid = TorusGrid(3, 8)
        terms = manufactured_terms(3, 0.25)
        tracemalloc.start()
        try:
            exact_sigma(grid, terms, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8 * grid.points) <= 16.0


# every entry point that samples a trigonometric polynomial takes the same term rule
ENTRY_POINTS = {
    "make_field": make_field,
    "analytic_hessian_layout": analytic_hessian_layout,
    "exact_sigma": lambda grid, terms: exact_sigma(grid, terms, 1),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestTermRule:
    def test_wrong_length_frequency(self, entry):
        with pytest.raises(InputError, match="must have length 4"):
            ENTRY_POINTS[entry](TorusGrid(2, 8), [((1, 0), 1.0, 0.0)])

    def test_frequency_above_aliasing_guard(self, entry):
        with pytest.raises(InputError, match="aliasing guard"):
            ENTRY_POINTS[entry](TorusGrid(2, 8), [((3, 0, 0, 0), 1.0, 0.0)])

    @pytest.mark.parametrize("coef", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 1.0)])
    def test_non_finite_coefficient(self, entry, coef):
        with pytest.raises(InputError, match="must be finite"):
            ENTRY_POINTS[entry](TorusGrid(2, 8), [((1, 0, 0, 0),) + coef])
