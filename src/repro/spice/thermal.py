"""Electro-thermal self-heating loop.

The paper's Table 1 hinges on the difference between the chamber/sensor
temperature and the *die* temperature: "the difference between the
external and the die temperatures is due to the bias current of the
circuit, and then to self-heating of QA, QB and the other components on
the chip".

This module closes that loop for a whole-die thermal model:

    T_die = T_ambient + R_th * P_dissipated(T_die)

solved by damped fixed-point iteration.  ``P_dissipated`` is taken as the
total power delivered by the independent sources at the DC operating
point (exactly equal to the dissipation at DC).  Every element is then
evaluated at ``T_die`` via its ``temperature_override``-free global
temperature — i.e. the whole chip floats together, which is the paper's
situation (chip in a hermetic partition at thermal equilibrium).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConvergenceError
from .analysis import OperatingPoint, _wrap_point
from .netlist import Circuit
from .solver import SolverOptions


@dataclass
class ThermalSolution:
    """Result of a self-heating solve."""

    operating_point: OperatingPoint
    ambient_k: float
    die_k: float
    power_w: float
    iterations: int

    @property
    def self_heating_k(self) -> float:
        """Die temperature rise above ambient [K]."""
        return self.die_k - self.ambient_k


def solve_with_self_heating(
    circuit: Circuit,
    ambient_k: float,
    rth_k_per_w: float,
    options: Optional[SolverOptions] = None,
    max_iterations: int = 60,
    tol_k: float = 1e-4,
    relaxation: float = 0.8,
    x0: Optional[np.ndarray] = None,
) -> ThermalSolution:
    """Solve the coupled electrical/thermal fixed point.

    Parameters
    ----------
    rth_k_per_w:
        Junction(die)-to-ambient thermal resistance [K/W].  Packaged
        small-die BiCMOS parts sit in the 100-500 K/W range.
    relaxation:
        Under-relaxation factor on the temperature update (1.0 = full
        step); 0.8 keeps the loop stable even where dP/dT is unfavourable.
    """
    from .session import Session

    if rth_k_per_w < 0.0:
        raise ConvergenceError("thermal resistance must be non-negative")
    # One session for the whole fixed-point loop: the system is
    # re-temperatured in place per iteration (the legacy loop rebuilt
    # TWO systems per iteration — one to solve, one for the power sum).
    session = Session(circuit, temperature_k=ambient_k)
    die_k = ambient_k
    point: Optional[OperatingPoint] = None
    power = 0.0
    x_prev = x0
    for iteration in range(1, max_iterations + 1):
        raw = session.solve_raw(temperature_k=die_k, x0=x_prev, options=options)
        point = _wrap_point(circuit, die_k, raw)
        x_prev = point.x
        power = session.system.total_source_power(point.x)
        target = ambient_k + rth_k_per_w * max(power, 0.0)
        delta = target - die_k
        if abs(delta) < tol_k:
            return ThermalSolution(
                operating_point=point,
                ambient_k=ambient_k,
                die_k=die_k,
                power_w=power,
                iterations=iteration,
            )
        die_k += relaxation * delta
    raise ConvergenceError(
        f"self-heating loop did not settle within {max_iterations} iterations "
        f"(last die temperature {die_k:.3f} K, power {power:.3e} W)"
    )
