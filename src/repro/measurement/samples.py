"""Process-spread samples: the paper's five-chip diffusion lot.

Every mechanism the paper blames for the sensor-vs-die discrepancy is a
per-sample parameter here:

* ``delta_vbe_offset_v`` — the amplification-stage offset plus the
  measurement-path series drops seen by the pad dVBE readout (paper:
  "Pads P4 and P5 have been added in order to correct this effect and
  the offset of the amplification stage").  This is the dominant cause
  of Table 1's compressed computed temperatures (it modifies the
  apparent dVBE(T) slope by ~8 %, the figure the paper quotes).
* ``rth_k_per_w`` / ``quiescent_power_w`` — die self-heating ("due to
  the bias current of the circuit, and then to self-heating of QA, QB
  and the other components on the chip").
* ``leakage_scale`` — strength of the parasitic substrate transistor
  ("the leakage current of the parasitic transistor of QB which is
  eight time larger than that of QA").
* ``current_ratio_drift_per_k`` — temperature drift of the QB/QA bias
  current ratio (the imbalance eqs. 17-20 correct).
* ``is_scale`` / ``is_mismatch`` / ``sensor_offset_k`` — ordinary lot
  spread, pair mismatch, and pt100 calibration error.

The planted ground truth (``EG``, ``XTI`` of the devices) is shared by
the whole lot: extraction methods are judged by how well they recover it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from ..bjt.parameters import BJTParameters, PAPER_PNP_SMALL
from ..bjt.pair import MatchedPair
from ..bjt.substrate import SubstratePNP
from ..circuits.bandgap_cell import BandgapCellConfig
from ..errors import MeasurementError
from .thermal import SelfHeatingModel


@dataclass(frozen=True)
class DeviceSample:
    """One chip of the lot with its non-idealities."""

    name: str = "sample"
    is_scale: float = 1.0
    is_mismatch: float = 1.0
    delta_vbe_offset_v: float = 4.0e-3
    opamp_vos_v: float = 0.0
    leakage_scale: float = 1.0
    rth_k_per_w: float = 150.0
    quiescent_power_w: float = 6.0e-3
    sensor_offset_k: float = 0.0
    current_ratio_drift_per_k: float = 0.0
    bias_current_a: float = 8.9e-6
    #: Fraction of ``delta_vbe_offset_v`` that survives the P4/P5 pad
    #: correction procedure (paper section 4: the pads exist "to correct
    #: this effect and the offset of the amplification stage").
    pad_correction_residual: float = 0.08

    def __post_init__(self) -> None:
        if self.is_scale <= 0.0 or self.is_mismatch <= 0.0:
            raise MeasurementError("IS factors must be positive")
        if self.leakage_scale < 0.0:
            raise MeasurementError("leakage scale must be non-negative")
        if self.bias_current_a <= 0.0:
            raise MeasurementError("bias current must be positive")

    # ------------------------------------------------------------------
    def bjt_params(self) -> BJTParameters:
        """Unit-device parameters of this chip (lot IS spread applied)."""
        return replace(PAPER_PNP_SMALL, is_=PAPER_PNP_SMALL.is_ * self.is_scale)

    def substrate_unit(self) -> SubstratePNP:
        """This chip's unit-area parasitic."""
        base = SubstratePNP(area=1.0)
        return SubstratePNP(
            i_leak_ref=base.i_leak_ref * self.leakage_scale,
            eg=base.eg,
            xti=base.xti,
            t_ref=base.t_ref,
            area=1.0,
            vsat_onset=base.vsat_onset,
        )

    def matched_pair(self) -> MatchedPair:
        unit = self.substrate_unit()
        return MatchedPair(
            base_params=self.bjt_params(),
            area_ratio=8.0,
            is_mismatch=self.is_mismatch,
            substrate_a=unit,
            substrate_b=unit.scaled(8.0),
        )

    def current_ratio_law(self, reference_k: float = 297.0) -> Callable[[float], float]:
        """QB/QA bias-current ratio vs temperature (drift around T2)."""
        drift = self.current_ratio_drift_per_k

        def ratio(temperature_k: float) -> float:
            return 1.0 + drift * (temperature_k - reference_k)

        return ratio

    def cell_config(self, radja: float = 0.0) -> BandgapCellConfig:
        """The bandgap test cell carrying this chip's non-idealities."""
        return BandgapCellConfig(
            params=self.bjt_params(),
            is_mismatch=self.is_mismatch,
            substrate_unit=self.substrate_unit(),
            opamp_vos=self.opamp_vos_v,
            radja=radja,
            p5_tap_offset_v=self.delta_vbe_offset_v,
        )

    def self_heating(self) -> SelfHeatingModel:
        supply_v = 5.0
        bias = self.bias_current_a

        def core_power(die_k: float) -> float:
            # Three PTAT-biased branches off the supply.
            return 3.0 * bias * (die_k / 300.0) * supply_v

        return SelfHeatingModel(
            rth_k_per_w=self.rth_k_per_w,
            quiescent_power_w=self.quiescent_power_w,
            core_power_law=core_power,
        )


@dataclass(frozen=True)
class ProcessSpread:
    """Uniform spread brackets for lot generation."""

    is_scale: tuple = (0.85, 1.18)
    is_mismatch: tuple = (0.985, 1.015)
    delta_vbe_offset_v: tuple = (2.9e-3, 4.8e-3)
    opamp_vos_v: tuple = (-2e-3, 2e-3)
    leakage_scale: tuple = (0.6, 2.5)
    rth_k_per_w: tuple = (80.0, 170.0)
    quiescent_power_w: tuple = (3e-3, 6e-3)
    sensor_offset_k: tuple = (-0.6, 0.6)
    current_ratio_drift_per_k: tuple = (1.2e-4, 3.2e-4)
    pad_correction_residual: tuple = (0.04, 0.12)

    def generate(self, count: int, seed: int = 2002) -> List[DeviceSample]:
        """Draw ``count`` samples reproducibly."""
        if count < 1:
            raise MeasurementError("need at least one sample")
        rng = np.random.default_rng(seed)

        def draw(bracket: tuple) -> float:
            low, high = bracket
            return float(rng.uniform(low, high))

        samples = []
        for index in range(count):
            samples.append(
                DeviceSample(
                    name=f"sample {index + 1}",
                    is_scale=draw(self.is_scale),
                    is_mismatch=draw(self.is_mismatch),
                    delta_vbe_offset_v=draw(self.delta_vbe_offset_v),
                    opamp_vos_v=draw(self.opamp_vos_v),
                    leakage_scale=draw(self.leakage_scale),
                    rth_k_per_w=draw(self.rth_k_per_w),
                    quiescent_power_w=draw(self.quiescent_power_w),
                    sensor_offset_k=draw(self.sensor_offset_k),
                    current_ratio_drift_per_k=draw(self.current_ratio_drift_per_k),
                    pad_correction_residual=draw(self.pad_correction_residual),
                )
            )
        return samples


def paper_lot(seed: int = 2002) -> List[DeviceSample]:
    """The five test-cell samples of the paper's Table 1."""
    return ProcessSpread().generate(5, seed=seed)


def ideal_sample() -> DeviceSample:
    """A chip with every non-ideality switched off — the exactness oracle."""
    return DeviceSample(
        name="ideal",
        delta_vbe_offset_v=0.0,
        opamp_vos_v=0.0,
        leakage_scale=0.0,
        rth_k_per_w=0.0,
        quiescent_power_w=0.0,
        sensor_offset_k=0.0,
        current_ratio_drift_per_k=0.0,
    )
