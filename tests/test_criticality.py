"""Tests for the critical-curve classifier.

Hand-derived frozen values: at p = q = 2 all quotients have denominator
pq - 1 = 3; at p = q = 1 + sqrt(2) the wave curve sits exactly on the
n = 3 threshold 1; at p = q = 1 + 2/n the damped curve sits exactly on
n/2 (the Fujita-type boundary).
"""

import math

import numpy as np
import pytest

from blowlab import criticality
from blowlab.comparison import reduction_equiv_check
from blowlab.criticality import (
    CELL_DTYPE,
    Label,
    alpha_damped,
    alpha_nakao_wakasugi,
    alpha_new,
    alpha_wave,
    classify,
    scan,
)
from blowlab.exponents import DomainError

RNG = np.random.default_rng(20260823)


class TestCurves:
    def test_frozen_values_at_2_2(self):
        assert alpha_new(2.0, 2.0) == pytest.approx(1.0, abs=1e-15)
        assert alpha_wave(2.0, 2.0) == pytest.approx(1.5, abs=1e-15)
        assert alpha_damped(2.0, 2.0) == pytest.approx(1.0, abs=1e-15)
        assert alpha_nakao_wakasugi(2.0, 2.0) == pytest.approx(7.0 / 6.0,
                                                               rel=1e-15)

    def test_strauss_boundary(self):
        # p = q = 1 + sqrt(2) solves (p + 2 + 1/p)/(p^2 - 1) = 1.
        p = 1.0 + math.sqrt(2.0)
        assert alpha_wave(p, p) == pytest.approx(1.0, rel=1e-14)

    def test_fujita_boundary(self):
        # p = q = 1 + 2/n gives (p+1)/(pq-1) = 1/(p-1) = n/2.
        for n in (1, 2, 3, 4):
            p = 1.0 + 2.0 / n
            assert alpha_damped(p, p) == pytest.approx(n / 2.0, rel=1e-14)

    def test_symmetry_and_asymmetry(self):
        for _ in range(20):
            p, q = RNG.uniform(1.1, 6.0, size=2)
            assert alpha_wave(p, q) == pytest.approx(alpha_wave(q, p), rel=1e-14)
            assert alpha_damped(p, q) == pytest.approx(alpha_damped(q, p),
                                                       rel=1e-14)
        assert alpha_new(2.0, 3.0) != alpha_new(3.0, 2.0)
        assert alpha_nakao_wakasugi(2.0, 3.0) != alpha_nakao_wakasugi(3.0, 2.0)

    def test_strict_monotonicity(self):
        for fn in (alpha_new, alpha_wave, alpha_damped, alpha_nakao_wakasugi):
            for _ in range(50):
                p, q = RNG.uniform(1.1, 6.0, size=2)
                dp, dq = RNG.uniform(0.05, 1.0, size=2)
                assert fn(p + dp, q) < fn(p, q)
                assert fn(p, q + dq) < fn(p, q)

    def test_shared_term_with_damped_curve(self):
        # The first argument of alpha_damped's max coincides with the
        # (q+1)/(pq-1) argument of alpha_new; compare term-level.
        for _ in range(20):
            p, q = RNG.uniform(1.1, 6.0, size=2)
            shared = (q + 1.0) / (p * q - 1.0)
            assert alpha_damped(p, q) >= shared
            assert alpha_new(p, q) >= shared

    def test_new_curve_vs_nakao_wakasugi_empirical(self):
        # Dominance of the older curve is plausible from comparing the
        # shared (q+1)/(pq-1) term but is not a theorem, and indeed
        # fails for p near 1 where the (2+2/p)/(pq-1) argument takes
        # over (e.g. p = 1.03, q = 2.59).  The classifier never assumes
        # dominance; here we pin down empirically that every violation
        # comes from that second argument.
        violations = 0
        for _ in range(500):
            p, q = RNG.uniform(1.01, 12.0, size=2)
            if alpha_new(p, q) > alpha_nakao_wakasugi(p, q) + 1e-12:
                violations += 1
                assert (2.0 + 2.0 / p) > (q + 1.0)
        assert violations > 0  # the counterexample region is real

    def test_domain(self):
        with pytest.raises(ValueError):
            alpha_new(1.0, 2.0)
        with pytest.raises(ValueError):
            alpha_wave(2.0, 0.5)


class TestClassify:
    def test_boundary_point_2_2_3(self):
        rep = classify(2.0, 2.0, 3)
        assert rep.alpha_new == pytest.approx(1.0, abs=1e-15)
        assert rep.threshold_wavelike == 1.0
        assert rep.label_new is Label.BLOW_UP
        assert rep.hypotheses_ok

    def test_n1_always_blows_up(self):
        for _ in range(50):
            p, q = RNG.uniform(1.05, 15.0, size=2)
            rep = classify(p, q, 1)
            assert rep.label_new is Label.BLOW_UP
            assert rep.label_nakao_wakasugi is Label.BLOW_UP

    def test_undetermined_far_supercritical(self):
        rep = classify(2.6, 2.6, 3)
        assert rep.alpha_new < rep.threshold_wavelike
        assert rep.label_new is Label.UNDETERMINED

    def test_hypothesis_gate_only_affects_new_label(self):
        # Large exponents in n = 4: the inequality may hold for the other
        # curves, but label_new requires the exponent hypotheses.
        rep = classify(1.2, 1.2, 4)
        assert rep.hypotheses_ok
        rep2 = classify(6.0, 1.05, 4)
        assert not rep2.hypotheses_ok
        assert rep2.label_new is Label.UNDETERMINED

    def test_dimension_domain(self):
        with pytest.raises(ValueError):
            classify(2.0, 2.0, 0)
        with pytest.raises(ValueError):
            classify(2.0, 2.0, 9)


class TestScan:
    def test_grid_shape_and_centers(self):
        grid = scan((1.5, 2.5), (3.0, 5.0), 2, 4)
        # A list, whose truth a caller may test, of plain structured rows.
        assert type(grid) is list and type(grid[0]) is np.ndarray
        assert len(grid) == 4 and len(grid[0]) == 4
        assert grid[0][0]["p"] == pytest.approx(1.625, abs=1e-15)
        assert grid[0][0]["q"] == pytest.approx(3.25, abs=1e-15)
        assert grid[-1][-1]["p"] == pytest.approx(2.375, abs=1e-15)
        assert grid[-1][-1]["q"] == pytest.approx(4.75, abs=1e-15)

    def test_resolution_one_is_midpoint(self):
        grid = scan((1.5, 2.5), (1.5, 2.5), 1, 1)
        assert grid[0][0]["p"] == pytest.approx(2.0, abs=1e-15)

    def test_evaluates_the_band_at_once(self, monkeypatch):
        # The caller's band bounds the curves' temporaries: scan makes one
        # _evaluate call over every row it is asked for.
        rows = []
        evaluate = criticality._evaluate

        def spy(p, q, n):
            rows.append(len(q))
            return evaluate(p, q, n)

        monkeypatch.setattr(criticality, "_evaluate", spy)
        assert len(scan((1.1, 10.0), (1.1, 10.0), 3, 40)) == 40
        assert len(scan((1.1, 10.0), (1.1, 10.0), 3, 40, rows=range(5, 25))) == 20
        assert rows == [40, 20]

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("resolution", [1, 16, 17, 40, 500])
    def test_bands_are_rows_of_the_full_scan(self, n, resolution):
        # Bands of 16 rows, as the region map scans resolution 125, and of
        # 7: 17, 40 and 500 rows end on a partial band.
        window = (1.1, 10.0), (1.05, 4.0)
        full = np.array(scan(*window, n, resolution))
        for band_rows in (16, 7):
            for j in range(0, resolution, band_rows):
                rows = range(j, min(j + band_rows, resolution))
                band = np.array(scan(*window, n, resolution, rows=rows))
                assert band.shape == (len(rows), resolution)
                for key in CELL_DTYPE.names:
                    assert band[key].tobytes() == full[key][j:rows.stop].tobytes(), \
                        (rows, key)

    @pytest.mark.parametrize("rows", [range(0), range(3, 3), range(-1, 2),
                                      range(2, 5), range(0, 4, 2), range(3, 0, -1)])
    def test_band_validation(self, rows):
        with pytest.raises(ValueError, match="rows="):
            scan((1.5, 2.5), (1.5, 2.5), 1, 4, rows=rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            scan((1.5, 2.5), (1.5, 2.5), 1, 0)
        with pytest.raises(ValueError):
            scan((1.0, 2.5), (1.5, 2.5), 1, 4)
        with pytest.raises(ValueError):
            scan((1.5, 25.0), (1.5, 2.5), 1, 4)


def windows(n):
    """Scan windows for dimension n: the resolution-1 cell at (2, 2), one
    straddling 2n/(n-1) (for n >= 4 it also holds the bounds (n+3)/(n-1)
    and n/(n-2)), one holding (2, 2) and the wide default window."""
    cap = 2.0 * n / (n - 1) if n > 1 else 3.0
    straddle = (max(1.05, cap - 1.0), cap + 1.0)
    return [((1.5, 2.5), (1.5, 2.5), 1), (straddle, straddle, 25),
            ((1.1, 4.0), (1.05, 4.0), 12), ((1.1, 10.0), (1.1, 10.0), 30)]


class TestScanOracle:
    """scan against classify, the scalar oracle, at every cell."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_field_equals_classify(self, n):
        for p_range, q_range, resolution in windows(n):
            grid = scan(p_range, q_range, n, resolution)
            assert len(grid) == resolution
            # The cell centres lo + (i + 1/2) width, computed per cell.
            width_p = (p_range[1] - p_range[0]) / resolution
            width_q = (q_range[1] - q_range[0]) / resolution
            for j, row in enumerate(grid):
                assert row.dtype == CELL_DTYPE and len(row) == resolution
                for i, cell in enumerate(row):
                    p = p_range[0] + (i + 0.5) * width_p
                    q = q_range[0] + (j + 0.5) * width_q
                    assert (cell["p"], cell["q"]) == (p, q)
                    rep = classify(p, q, n)
                    for key in CELL_DTYPE.names:
                        want = getattr(rep, key)
                        if isinstance(want, Label):
                            want = want is Label.BLOW_UP
                        assert cell[key] == want, (p, q, key)

    def test_windows_reach_every_outcome(self):
        # Guards the oracle test: over n = 1..8 its windows hold cells
        # with each label value and with the hypotheses failing.
        cells = np.concatenate([row for n in range(1, 9)
                                for p_range, q_range, res in windows(n)
                                for row in scan(p_range, q_range, n, res)])
        for key in CELL_DTYPE.names[6:]:
            assert cells[key].any() and not cells[key].all(), key
        assert (cells["alpha_new"] == 1.0).any()  # (2, 2) in n = 3

    @pytest.mark.parametrize("n", [0, 9, 2.5, True])
    def test_dimension_validation(self, n):
        with pytest.raises(DomainError):
            scan((1.5, 2.5), (1.5, 2.5), n, 4)


class TestReductionIdentity:
    def test_known_points(self):
        assert reduction_equiv_check(2.0, 2.0, 1)
        assert reduction_equiv_check(2.0, 2.0, 3)

    def test_random_suite(self):
        count = 0
        while count < 500:
            p, q = RNG.uniform(1.001, 5.0, size=2)
            n = int(RNG.integers(1, 9))
            if 1.0 + (2.0 - p) / 2.0 * (n - 1) <= 0.0:
                continue
            assert reduction_equiv_check(p, q, n)
            count += 1
