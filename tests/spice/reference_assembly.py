"""The element-by-element MNA assembler: the equivalence oracle.

Production assembly (:class:`repro.spice.mna.MNASystem`) partitions the
elements once, caches the linear part and scatters the nonlinear group
as COO triplets.  :class:`ReferenceSystem` instead walks every element
and stamps one float at a time — simple, obviously correct, and the
yardstick ``test_compiled_assembly.py`` and ``test_vectorized_groups.py``
measure the production path against.  It is an :class:`MNASystem`, so
``solve_dc_system(ReferenceSystem(circuit))`` runs a whole Newton solve
on the oracle.
"""

from typing import Optional, Tuple

import numpy as np

from repro.spice.elements.base import Stamp, TransientContext
from repro.spice.mna import MNASystem, _ResidualOnlyStamp


class ReferenceSystem(MNASystem):
    """An :class:`MNASystem` whose assembly stamps element by element."""

    def assemble(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        time: Optional[float] = None,
        transient: Optional[TransientContext] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Element-by-element dense ``(J, F)``."""
        jacobian = np.zeros((self.size, self.size))
        residual = np.zeros(self.size)
        self._stamp_all(
            Stamp(
                x=x,
                jacobian=jacobian,
                residual=residual,
                temperature_k=self.temperature_k,
                gmin=gmin,
                source_scale=source_scale,
                time=time,
                transient=transient,
            )
        )
        return jacobian, residual

    def assemble_residual(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
        time: Optional[float] = None,
        transient: Optional[TransientContext] = None,
    ) -> np.ndarray:
        """Element-by-element ``F(x)``."""
        residual = np.zeros(self.size)
        self._stamp_all(
            _ResidualOnlyStamp(
                x=x,
                jacobian=None,
                residual=residual,
                temperature_k=self.temperature_k,
                gmin=gmin,
                source_scale=source_scale,
                time=time,
                transient=transient,
            )
        )
        return residual

    def _stamp_all(self, stamp: Stamp) -> None:
        """The one oracle body: gmin-to-ground plus every element.

        Shared by the full and residual-only assemblies, so the two can
        never drift apart.
        """
        gmin = stamp.gmin
        for node_index in range(self.n_nodes):
            stamp.add_residual(node_index, gmin * stamp.v(node_index))
            stamp.add_jacobian(node_index, node_index, gmin)
        for element in self.circuit.elements:
            element.stamp(stamp)
