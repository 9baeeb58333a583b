"""Tests for Monte-Carlo extraction statistics."""

import pytest

from repro.analysis.montecarlo import (
    TRUE_EG,
    TRUE_XTI,
    MonteCarloSummary,
    run_extraction_montecarlo,
)
from repro.errors import ReproError


@pytest.fixture(scope="module")
def corrected_mc():
    return run_extraction_montecarlo(lot_size=8, seed=5, include_noise=False)


@pytest.fixture(scope="module")
def raw_mc():
    return run_extraction_montecarlo(
        lot_size=8, seed=5, include_noise=False, corrected=False
    )


class TestMonteCarlo:
    def test_corrected_method_unbiased(self, corrected_mc):
        assert abs(corrected_mc.eg_bias_mev) < 6.0
        assert abs(corrected_mc.xti_bias) < 0.2

    def test_raw_method_strongly_biased(self, raw_mc):
        # Without the offset/current corrections the computed
        # temperatures are compressed and XTI lands far from the truth.
        assert abs(raw_mc.xti_bias) > 1.0

    def test_corrected_tighter_than_raw(self, corrected_mc, raw_mc):
        assert corrected_mc.xti_std < raw_mc.xti_std

    def test_summary_statistics(self, corrected_mc):
        assert corrected_mc.eg_values.shape == (8,)
        assert corrected_mc.eg_std >= 0.0
        assert corrected_mc.label == "analytical/corrected"

    def test_reproducible(self):
        a = run_extraction_montecarlo(lot_size=3, seed=9, include_noise=False)
        b = run_extraction_montecarlo(lot_size=3, seed=9, include_noise=False)
        assert a.eg_values.tolist() == b.eg_values.tolist()

    def test_chip_couple_does_not_depend_on_the_lot(self):
        # Each chip draws its sample in turn and carries its own seed, so
        # a larger lot only appends chips.
        small = run_extraction_montecarlo(lot_size=2, seed=9, include_noise=False)
        large = run_extraction_montecarlo(lot_size=3, seed=9, include_noise=False)
        assert large.eg_values[:2].tolist() == small.eg_values.tolist()
        assert large.xti_values[:2].tolist() == small.xti_values.tolist()

    def test_rejects_tiny_lot(self):
        with pytest.raises(ReproError):
            run_extraction_montecarlo(lot_size=1)


class TestStats:
    def test_line_fit(self):
        from repro.analysis.stats import fit_line

        fit = fit_line([1.0, 2.0, 3.0, 4.0], [2.1, 4.0, 6.1, 8.0])
        assert fit.slope == pytest.approx(1.98, abs=0.05)
        assert fit.r_squared > 0.99

    def test_r_squared_perfect(self):
        from repro.analysis.stats import r_squared

        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_line_fit_rejects_degenerate(self):
        from repro.analysis.stats import fit_line
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            fit_line([1.0, 2.0], [1.0, 2.0])
