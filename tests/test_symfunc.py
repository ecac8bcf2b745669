"""Cone algebra: frozen examples against brute-force oracles, plus properties."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hessianlab.cli import _doc
from hessianlab.errors import InputError
from hessianlab.symfunc import (
    _reduced_tables,
    cone_mask,
    elementary_symmetric_table,
    sample_cone,
    table_in_cone,
    table_margin,
    verify_cone_inequalities,
)


def brute_force_sk(lam, k):
    """Independent oracle: direct subset-sum expansion, summed exactly in
    rational arithmetic and rounded once (a float sum of the C(n, k)
    products can cancel far beyond the library's own error)."""
    n = len(lam)
    if k == 0:
        return 1.0
    if k < 0 or k > n:
        return 0.0
    return float(sum(math.prod(Fraction(lam[i]) for i in idx)
                     for idx in combinations(range(n), k)))


def exact_sk(lam, m):
    """S_1 .. S_m of lam in exact rational arithmetic."""
    table = [Fraction(1)] + [Fraction(0)] * m
    for x in lam:
        for k in range(m, 0, -1):
            table[k] += Fraction(x) * table[k - 1]
    return table[1:]


def products_stay_normal(lam, m):
    """Whether every product of 2..m nonzero entries of lam is a normal float."""
    mags = np.sort(np.abs(lam[lam != 0]))[:m]
    return bool(np.all(np.cumsum(np.log2(mags))[1:] >= math.log2(np.finfo(float).tiny) + 1))


finite_vecs = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=10,
)


def report_sha256(n, m, samples, seed):
    """sha256 of the suite's report written as indented JSON with sorted keys."""
    doc = json.dumps(_doc(verify_cone_inequalities(n, m, samples, seed=seed)),
                     indent=2, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def sk(lam, k):
    """S_k of each vector from the table the solver and the suite use."""
    return elementary_symmetric_table(lam, k)[..., k]


class TestElementarySymmetric:
    def test_all_ones(self):
        assert sk(np.ones(3), 2) == 3.0  # C(3,2)

    def test_k_above_n_is_zero(self):
        np.testing.assert_array_equal(elementary_symmetric_table([1.0, 2.0, 3.0], 4),
                                      [1.0, 6.0, 11.0, 6.0, 0.0])

    def test_k_zero_is_one(self):
        np.testing.assert_array_equal(elementary_symmetric_table([-5.0, 7.0], 0), [1.0])

    def test_oracle_example(self):
        # subset-sum oracle: 1*2 + 1*3 + 2*3 = 11
        assert sk([1.0, 2.0, 3.0], 2) == 11.0

    def test_rejects_nonfinite(self):
        # a NaN entry fails every S_k > 0 test, so the mask and the solver's
        # margin rule (min table_margin > 0) both put it outside the cone
        lam = np.array([1.0, np.nan])
        assert not cone_mask(lam, 1)
        assert not table_margin(elementary_symmetric_table(lam, 1), 2, 1) > 0.0

    @given(finite_vecs, st.integers(min_value=0, max_value=11))
    @settings(max_examples=200, deadline=None)
    # a float sum of the 210 products missed the exact S_6 = 39.76359678061817
    # by 1.4e-10, beyond the bound; the library's 2.0e-11 is within it
    @example([3.08203125, 3.08203125, 8.4375, 8.421875, 8.125, 0.3359375, -1.0,
              -5.96875, -5.96875, -6.65625], 6)
    def test_matches_brute_force(self, entries, k):
        got = sk(entries, k)
        want = brute_force_sk(entries, k)
        scale = max(1.0, abs(got), abs(want))
        assert abs(got - want) <= 1e-12 * scale

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=12),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_integer_inputs_exact(self, entries, k):
        assert sk(np.asarray(entries, dtype=float), k) == brute_force_sk(entries, k)

    def test_batched(self):
        lam = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        np.testing.assert_allclose(sk(lam, 2), [11.0, 3.0])

    def test_large_n_stable(self):
        lam = np.linspace(0.5, 2.0, 64)
        table = elementary_symmetric_table(lam, 10)
        assert np.all(np.isfinite(table))
        # spot check degrees 1 and 2 against direct sums
        assert abs(table[1] - lam.sum()) < 1e-10 * abs(lam.sum())
        s2 = (lam.sum() ** 2 - (lam**2).sum()) / 2
        assert abs(table[2] - s2) < 1e-10 * abs(s2)


class TestReducedSymmetric:
    """_reduced_tables: row i is the table of lam with entry i deleted."""

    def test_delete_and_sum(self):
        assert _reduced_tables(np.array([1.0, 2.0, 3.0]), 1)[0, 1] == 5.0

    def test_s0_convention(self):
        np.testing.assert_array_equal(_reduced_tables(np.array([1.0, 2.0, 3.0]), 0),
                                      np.ones((3, 1)))

    def test_two_entry_example(self):
        assert _reduced_tables(np.array([4.0, 1.0, -1.0]), 2)[2, 2] == 4.0

    @given(finite_vecs, st.integers(min_value=0, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_matches_deletion_oracle(self, entries, k):
        if len(entries) < 2:
            return
        red = _reduced_tables(np.asarray(entries), k)
        for i in range(len(entries)):
            got = red[i, k]
            want = brute_force_sk(entries[:i] + entries[i + 1:], k)
            scale = max(1.0, abs(got), abs(want))
            assert abs(got - want) <= 1e-12 * scale

    def test_expansion_identity_exact(self):
        # S_k = S_{k;i} + lam_i S_{k-1;i} to 1e-12 relative
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            lam = rng.normal(size=n) * 3
            table = elementary_symmetric_table(lam, n)
            red = _reduced_tables(lam, n)
            for k in range(1, n + 1):
                for i in range(n):
                    rhs = red[i, k] + lam[i] * red[i, k - 1]
                    assert abs(table[k] - rhs) <= 1e-12 * max(1.0, abs(table[k]), abs(rhs))


def margin(lam, m):
    """The normalized Gamma_m margin of each vector, as the solver takes it."""
    lam = np.asarray(lam, dtype=float)
    return table_margin(elementary_symmetric_table(lam, m), lam.shape[-1], m)


class TestInCone:
    """cone_mask and table_margin: membership and the normalized margin."""

    def test_example_inside(self):
        lam = np.array([3.0, 2.0, -1.0])
        assert cone_mask(lam, 2)
        np.testing.assert_allclose(elementary_symmetric_table(lam, 2)[1:], [4.0, 1.0])
        assert margin(lam, 2) == pytest.approx(1.0 / 3.0)  # min(4/3, 1/3)

    def test_example_outside(self):
        lam = np.array([3.0, 1.0, -1.0])
        assert not cone_mask(lam, 2)
        assert elementary_symmetric_table(lam, 2)[2] == -1.0
        assert margin(lam, 2) < 0.0

    def test_all_ones_any_m(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                assert cone_mask(np.ones(n), m)

    def test_margin_normalization(self):
        assert margin(np.ones(4), 2) == pytest.approx(1.0)

    def test_m_out_of_range(self):
        # S_m = 0 for m > n, so no vector lies in such a Gamma_m; the entry
        # points (sigma_m, verify_cone_inequalities) reject that m outright
        assert not cone_mask(np.ones(3), 4)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8),
           st.floats(0.01, 100.0))
    @settings(max_examples=150, deadline=None)
    @example([4.999999999999999] * 3 + [-4.999999999999999], 1.75)
    @example([0.0, 5e-324], 2.0)
    def test_positive_homogeneity(self, entries, t):
        # underflow breaks homogeneity in floating point only: skip the inputs
        # where scaling flushes an entry to 0 (t = 0.5 on 5e-324) or where
        # S_k has an underflowing product (0.5 * 5e-324 = 0, but not at t = 2)
        lam = np.asarray(entries)
        m = max(1, len(entries) // 2)
        assume(all((t * x == 0) == (x == 0) for x in entries))
        assume(products_stay_normal(lam, m) and products_stay_normal(t * lam, m))
        # on the cone boundary (an exact S_k of 0) rounding decides the sign,
        # as in the pinned example, where S_2 is 0 exactly and 2.8e-14 scaled
        assume(all(s != 0 for v in (lam, t * lam) for s in exact_sk(v, m)))
        assert cone_mask(lam, m) == cone_mask(t * lam, m)
        # the solver's rule, table_in_cone of its S_k table, is the same
        # membership test; a positive margin implies membership, but inside
        # the cone a subnormal S_k / C(n, k) can round to a margin of 0, as in
        # the pinned example [0, 5e-324]
        for v in (lam, t * lam):
            assert table_in_cone(elementary_symmetric_table(v, m), m) == cone_mask(v, m)
            assert (margin(v, m) > 0) <= cone_mask(v, m)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8),
           st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, entries, rand):
        # summed in another order, a rounded S_k can change sign where the
        # exact one is below round-off: cone_mask([1e-20, 1, -1], 1) is False
        # and cone_mask([1, -1, 1e-20], 1) True.  Each rounded S_k is within
        # 1e-12 S_k(|lam|) of the exact one (n <= 8 entries, no underflowing
        # product), so beyond that bound the sign, and the mask, is exact.
        lam = list(entries)
        m = max(1, len(entries) // 2)
        assume(products_stay_normal(np.asarray(lam), m))
        assume(all(abs(s) > 1e-12 * b for s, b in
                   zip(exact_sk(lam, m), exact_sk([abs(x) for x in lam], m))))
        before = cone_mask(np.asarray(lam), m)
        rand.shuffle(lam)
        assert cone_mask(np.asarray(lam), m) == before

    def test_sorted_cone_has_m_positive_entries(self):
        rng = np.random.default_rng(3)
        for n, m in [(3, 2), (4, 2), (5, 3)]:
            lam = sample_cone(rng, n, m, 2000)
            ls = np.sort(lam, axis=-1)[:, ::-1]
            assert np.all(ls[:, m - 1] > 0)


class TestVerificationSuite:
    def test_small_suite_passes(self):
        rep = verify_cone_inequalities(3, 2, 2000, seed=7)
        assert rep.all_pass()
        assert rep.theta_hat > 0
        assert set(rep.results) == {
            "monotonicity",
            "restricted_positivity",
            "expansion_identity",
            "product_lower_bound",
            "product_bound",
            "gradient_lower_bound",
            "weighted_cauchy_schwarz",
            "maclaurin",
        }

    def test_halfspace_trivial(self):
        rep = verify_cone_inequalities(2, 1, 1000, seed=3)
        assert rep.all_pass()

    def test_json_shape(self):
        rep = verify_cone_inequalities(3, 2, 500, seed=1)
        doc = _doc(rep)
        assert doc["results"]
        for entry in doc["results"].values():
            assert set(entry) == {"passes", "fails", "worst_slack", "witness"}
            assert entry["passes"] + entry["fails"] == 500

    def test_report_independent_of_cpu_count(self, monkeypatch):
        import os

        import hessianlab.symfunc as symfunc

        samples = 2 * symfunc._BLOCK + 300  # three blocks, the last a short one
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        one = verify_cone_inequalities(3, 2, samples, seed=4)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        three = verify_cone_inequalities(3, 2, samples, seed=4)
        assert one == three
        assert all(r.passes + r.fails == samples for r in one.results.values())

    def test_single_block_report_pinned(self):
        # a run of at most one block (samples <= _BLOCK) writes these bytes
        assert report_sha256(3, 2, 3000, 9) == (
            "7803ea4472b3c97222a2c18f56d7c256c3038646c7b5e3adb4825f941a14ca09"
        )

    @pytest.mark.parametrize("n, m, samples, seed, digest", [
        (2, 1, 3000, 1, "e313c4a3da1bc435f90a74ff81d48bb6e12213718b97f19fcd0c8060489b466d"),
        (4, 3, 20000, 3, "c4ff3e03bc08fd02a9b6386d893d3078efb11dfd526c9c91e7be9e44ddaf5b99"),
        (3, 2, 40000, 7, "d6ff6c044d4abca0ac0483b78e3eae997f17a4bd284853370c8f6b92c225c888"),
    ], ids=["vacuous-m1", "two-index-subsets", "three-blocks"])
    def test_report_pinned(self, n, m, samples, seed, digest):
        # the bytes the single-block pin does not reach: m = 1's vacuous
        # results, inequality (2)'s subsets of two indices (m = 3), and a
        # merge of three blocks
        assert report_sha256(n, m, samples, seed) == digest

    def test_rejects_bad_range(self):
        with pytest.raises(InputError):
            verify_cone_inequalities(3, 3, 100, seed=0)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_no_samples(self, samples):
        with pytest.raises(InputError, match="samples"):
            verify_cone_inequalities(3, 2, samples, seed=0)

    def test_theta_explicit_bound(self):
        rep = verify_cone_inequalities(4, 2, 5000, seed=11)
        assert rep.theta_hat >= rep.theta_explicit - 1e-12


def test_cone_mask_matches_in_cone():
    # the batched mask against exact membership row by row, and against the
    # solver's in_cone rule (min table_margin > 0) on the same batch
    rng = np.random.default_rng(5)
    lam = rng.uniform(-1, 3, size=(500, 4))
    mask = cone_mask(lam, 2)
    for row, flag in zip(lam, mask):
        assert all(s > 0 for s in exact_sk(row, 2)) == bool(flag)
    np.testing.assert_array_equal(margin(lam, 2) > 0.0, mask)
