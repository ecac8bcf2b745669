"""Experiment recipes: the fixed terms the drivers and the CLI build on."""

import numpy as np
import pytest

from hessianlab.errors import InputError
from hessianlab.experiments import (
    default_density_terms,
    default_direction_terms,
    manufactured_terms,
)
from hessianlab.geometry import TorusGrid, make_field


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
