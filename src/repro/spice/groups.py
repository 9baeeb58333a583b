"""Vectorized device-group evaluation.

Compiled assembly (:class:`~repro.spice.mna.MNASystem`) removed the
linear elements from the per-iteration Python loop; what remained — and
what profiles showed dominating every sweep — is the per-element
dispatch into the nonlinear junction math (BJTs ~60 % of a netlist
sweep).  This module removes that too: at system build time (and on
:meth:`MNASystem.invalidate`) the nonlinear elements are partitioned
into *homogeneous groups* (all plain Gummel-Poon BJTs, all junction
diodes), their model parameters and global node indices packed into
contiguous arrays, and each Newton evaluation computes every device of
a group in one vectorized NumPy pass:

* the residual-only path (line-search probes — the hottest loop in the
  solver) evaluates just the terminal *currents*;
* the full path additionally evaluates the conductance entries and
  returns them as COO triplets against precomputed row/column patterns,
  ready for the dense ``np.add.at`` scatter or the sparse assembly
  mode.  A one-deep memo keyed on the gathered junction voltages lets
  the full pass reuse the residual pass's junction math at the same
  iterate — the group-level mirror of the scalar ``SpiceBJT._op_cache``
  (the solver probes a candidate's residual and then assembles the
  Jacobian at that same accepted point, back to back);
* the small-signal path returns the junction ``dQ/dV`` as COO triplets
  (``ac_capacitance``), which :meth:`MNASystem.linearise` places ahead
  of every ungrouped element's ``ac_stamp`` in ``C``.

Equivalence contract: a group stamps the *same mathematical expressions*
as the scalar ``Element.stamp`` it replaces, term for term, so the two
paths agree to float64 rounding (the test suite pins ``<= 1e-12``
relative).  The scalar path stays the reference —
``MNASystem(vectorized=False)`` routes every element back through it.

Ground handling: node index ``-1`` (ground) maps to a trailing zero slot
of an extended iterate ``x_ext = [x, 0.0]`` for gathers, and scatter
patterns are masked at build time so contributions to ground rows are
dropped exactly as :meth:`Stamp.add_residual` drops them.

Numerical guards: the junction exponentials are evaluated with the
argument clamped at :data:`~repro.spice.elements.base._MAX_EXP_ARG`
*before* ``np.exp`` (the scalar ``limited_exp`` never evaluates past the
cap, so the vectorized path must not either), and each evaluation runs
under ``np.errstate(over="ignore")`` so a wild Newton trial point can at
worst produce a large-but-finite stamp, never a ``RuntimeWarning`` — the
test suite promotes warnings to errors to keep it that way.

Temperature: device temperatures (ambient plus any per-element
``temperature_override``) and the derived model temperature laws are
cached per group, keyed on the ambient temperature.  The override
snapshot refreshes on :meth:`MNASystem.invalidate` — mutating an
element's ``temperature_override`` on a live system follows the same
invalidate contract as mutating a linear element's value.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..constants import K_BOLTZMANN_EV, K_OVER_Q
from .elements.base import _MAX_EXP_ARG

#: ``exp`` at the linearisation boundary (see ``limited_exp``).
_EDGE = math.exp(_MAX_EXP_ARG)

#: Forward-bias fraction of the depletion-capacitance linearisation
#: (mirrors the scalar ``SpiceBJT._depletion_capacitance``).
_FC = 0.5


def _limited_exp_array(arg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``limited_exp``: ``(exp(arg), d/darg)`` with the same
    linear continuation past the cap as the scalar helper.  The clamp
    runs *before* ``np.exp`` so no overflow is ever evaluated."""
    value = np.exp(np.minimum(arg, _MAX_EXP_ARG))
    over = arg > _MAX_EXP_ARG
    if over.any():
        slope = np.where(over, _EDGE, value)
        value = np.where(over, _EDGE * (1.0 + (arg - _MAX_EXP_ARG)), value)
        return value, slope
    return value, value


def _masked_pattern(rows_raw: np.ndarray, cols_raw: Optional[np.ndarray]):
    """Build the (selection, rows[, cols]) of the non-ground entries."""
    if cols_raw is None:
        mask = rows_raw >= 0
        return np.flatnonzero(mask), rows_raw[mask].astype(np.intp)
    mask = (rows_raw >= 0) & (cols_raw >= 0)
    return (
        np.flatnonzero(mask),
        rows_raw[mask].astype(np.intp),
        cols_raw[mask].astype(np.intp),
    )


class DeviceGroup:
    """Base: packed indices plus the temperature-override snapshot."""

    #: Group label for diagnostics and stats.
    kind = "device"

    def __init__(self, devices: Sequence, size: int):
        self.devices = list(devices)
        self.n = len(self.devices)
        self.size = size
        self._t_override: Optional[np.ndarray] = None
        self._has_override = False
        self._laws_key: Optional[float] = None
        self._laws = None
        #: One-deep memo of the last junction evaluation (see module
        #: docstring); invalidated with the laws.
        self._memo = None
        self.refresh_overrides()

    def refresh_overrides(self) -> None:
        """Re-snapshot per-device ``temperature_override`` values."""
        overrides = [el.temperature_override for el in self.devices]
        self._has_override = any(t is not None for t in overrides)
        if self._has_override:
            self._t_override = np.array(
                [math.nan if t is None else t for t in overrides]
            )
        else:
            self._t_override = None
        self._laws_key = None
        self._memo = None

    def _device_temperatures(self, ambient: float):
        """Per-device temperatures (scalar when no overrides are set)."""
        if self._has_override:
            return np.where(np.isnan(self._t_override), ambient, self._t_override)
        return ambient

    def _gather_index(self, raw: np.ndarray) -> np.ndarray:
        """Map ground (-1) to the extended iterate's trailing zero slot."""
        return np.where(raw < 0, self.size, raw).astype(np.intp)


class BJTGroup(DeviceGroup):
    """All plain (substrate-free) Gummel-Poon BJTs of one system.

    Vectorizes :meth:`SpiceBJT.currents_and_derivatives` plus the stamp
    itself.  The three junction branches (B-E transport, B-C transport,
    B-E leakage) are evaluated as a single stacked ``(3 n,)`` vector —
    gathered straight from the iterate through precomputed index
    arrays — so one division, one ``exp`` and one multiply serve every
    junction of the group.
    """

    kind = "bjt"

    def __init__(self, devices: Sequence, size: int):
        super().__init__(devices, size)
        params = [el.params for el in devices]
        c_raw = np.array([el._node_idx[0] for el in devices])
        b_raw = np.array([el._node_idx[1] for el in devices])
        e_raw = np.array([el._node_idx[2] for el in devices])
        self._gc = self._gather_index(c_raw)
        self._gb = self._gather_index(b_raw)
        self._ge = self._gather_index(e_raw)
        self.sign = np.array([el.sign for el in devices])
        # Stacked junction gathers: v_stack = sign3 * (x[hi] - x[lo])
        # produces [vbe, vbc, vbe] in one pass.
        self._stack_hi = np.concatenate([self._gb, self._gb, self._gb])
        self._stack_lo = np.concatenate([self._ge, self._gc, self._ge])
        self._sign3 = np.concatenate([self.sign, self.sign, self.sign])

        self.is_ = np.array([p.is_ for p in params])
        self.ise = np.array([p.ise for p in params])
        self.bf = np.array([p.bf for p in params])
        self.xtb = np.array([p.xtb for p in params])
        self.xti = np.array([p.xti for p in params])
        self.tnom = np.array([p.tnom for p in params])
        self.nf = np.array([p.nf for p in params])
        self.nr = np.array([p.nr for p in params])
        self.ne = np.array([p.ne for p in params])
        self.eg_over_k = np.array([p.eg / K_BOLTZMANN_EV for p in params])
        self.eg_over_ne_k = np.array(
            [p.eg / (p.ne * K_BOLTZMANN_EV) for p in params]
        )
        self.ise_exp = np.array([p.xti / p.ne - p.xtb for p in params])
        self.inv_var = np.array(
            [0.0 if math.isinf(p.var) else 1.0 / p.var for p in params]
        )
        self.inv_vaf = np.array(
            [0.0 if math.isinf(p.vaf) else 1.0 / p.vaf for p in params]
        )
        self.inv_ikf = np.array(
            [0.0 if math.isinf(p.ikf) else 1.0 / p.ikf for p in params]
        )
        self.inv_br = np.array([1.0 / p.br for p in params])
        self.inv_va2 = np.concatenate([self.inv_var, self.inv_vaf])

        # Residual rows: one block each for C, B, E.
        self._res_sel, self._res_rows = _masked_pattern(
            np.concatenate([c_raw, b_raw, e_raw]), None
        )
        # Jacobian entries, in the scalar stamp's order:
        # (c,b) (c,e) (c,c) (b,b) (b,e) (b,c) (e,b) (e,e) (e,c)
        jac_rows = np.concatenate(
            [c_raw, c_raw, c_raw, b_raw, b_raw, b_raw, e_raw, e_raw, e_raw]
        )
        jac_cols = np.concatenate(
            [b_raw, e_raw, c_raw, b_raw, e_raw, c_raw, b_raw, e_raw, c_raw]
        )
        self._jac_sel, self._jac_rows, self._jac_cols = _masked_pattern(
            jac_rows, jac_cols
        )
        # AC capacitance entries: the two symmetric two-terminal blocks
        # (B-E, then B-C), masked dynamically on the junction values.
        self._cap_rows_raw = np.concatenate(
            [b_raw, b_raw, e_raw, e_raw, b_raw, b_raw, c_raw, c_raw]
        )
        self._cap_cols_raw = np.concatenate(
            [b_raw, e_raw, b_raw, e_raw, b_raw, c_raw, b_raw, c_raw]
        )
        # Depletion-law constants (temperature-independent).
        self.cje = np.array([p.cje for p in params])
        self.cjc = np.array([p.cjc for p in params])
        self.vje = np.array([p.vje for p in params])
        self.vjc = np.array([p.vjc for p in params])
        self.mje = np.array([p.mje for p in params])
        self.mjc = np.array([p.mjc for p in params])
        self.tf = np.array([p.tf for p in params])

    # -- temperature laws ----------------------------------------------
    def _temperature_laws(self, ambient: float):
        """Memoised vectorized laws, keyed on the ambient temperature."""
        if self._laws_key == ambient:
            return self._laws
        t = self._device_temperatures(ambient)
        ratio = t / self.tnom
        delta = 1.0 / self.tnom - 1.0 / t
        is_t = self.is_ * ratio**self.xti * np.exp(self.eg_over_k * delta)
        ise_t = self.ise * ratio**self.ise_exp * np.exp(self.eg_over_ne_k * delta)
        bf_t = self.bf * ratio**self.xtb
        vt = K_OVER_Q * t
        nf_vt = self.nf * vt
        nr_vt = self.nr * vt
        ne_vt = self.ne * vt
        nvt_stack = np.concatenate([nf_vt, nr_vt, ne_vt])
        sat_stack = np.concatenate([is_t, is_t, ise_t])
        laws = (
            1.0 / nvt_stack,          # argument scale
            sat_stack,
            sat_stack / nvt_stack,    # conductance scale
            1.0 / bf_t,
        )
        self._laws_key = ambient
        self._laws = laws
        self._memo = None
        return laws

    # -- junction math -------------------------------------------------
    def _currents(self, v_stack, laws):
        """Vectorized transport/leakage currents over the group.

        Returns ``(ic, ib, core)`` in junction convention; ``core``
        carries every intermediate the derivative completion
        (:meth:`_derivatives`) needs, so a memo hit on the same iterate
        pays for the currents only once.
        """
        inv_nvt_stack, sat_stack, g_scale, inv_bf_t = laws
        n = self.n
        e_val, e_slope = _limited_exp_array(v_stack * inv_nvt_stack)
        i_stack = sat_stack * (e_val - 1.0)
        i_f = i_stack[:n]
        i_r = i_stack[n : 2 * n]
        i_le = i_stack[2 * n :]

        # Base charge qb = q1 * (1 + sqrt(1 + 4 q2)) / 2, the Early
        # denominator d clamped at 0.05 exactly as the scalar model.
        va_terms = v_stack[: 2 * n] * self.inv_va2
        d_raw = 1.0 - va_terms[:n] - va_terms[n:]
        d = np.maximum(d_raw, 0.05)
        q1 = 1.0 / d
        q2 = i_f * self.inv_ikf
        root = np.sqrt(1.0 + 4.0 * np.maximum(q2, 0.0))
        h = 0.5 * (1.0 + root)
        qb = q1 * h
        inv_qb = 1.0 / qb
        icc = (i_f - i_r) * inv_qb
        i_r_br = i_r * self.inv_br
        ic = icc - i_r_br
        ib = i_f * inv_bf_t + i_le + i_r_br
        core = (e_slope, g_scale, inv_bf_t, d_raw, q1, root, h, inv_qb, icc)
        return ic, ib, core

    def _derivatives(self, core):
        """Complete the Jacobian pieces from a :meth:`_currents` core."""
        e_slope, g_scale, inv_bf_t, d_raw, q1, root, h, inv_qb, icc = core
        n = self.n
        g_stack = g_scale * e_slope
        gif = g_stack[:n]
        gir = g_stack[n : 2 * n]
        g_le = g_stack[2 * n :]
        clamped = d_raw < 0.05
        q1_sq = np.where(clamped, 0.0, q1 * q1)
        dq1_dvbe = q1_sq * self.inv_var
        dq1_dvbc = q1_sq * self.inv_vaf
        dq2_dvbe = gif * self.inv_ikf
        dqb_dvbe = dq1_dvbe * h + q1 * (1.0 / root) * dq2_dvbe
        dqb_dvbc = dq1_dvbc * h
        dicc_dvbe = gif * inv_qb - icc * dqb_dvbe * inv_qb
        dicc_dvbc = -gir * inv_qb - icc * dqb_dvbc * inv_qb
        gir_br = gir * self.inv_br
        dic_dvbc = dicc_dvbc - gir_br
        dib_dvbe = gif * inv_bf_t + g_le
        return dicc_dvbe, dic_dvbc, dib_dvbe, gir_br

    def _gather(self, x_ext: np.ndarray) -> np.ndarray:
        """Stacked junction voltages ``[vbe, vbc, vbe]`` off the iterate."""
        return self._sign3 * (x_ext[self._stack_hi] - x_ext[self._stack_lo])

    def _residual_values(self, v_stack, ic, ib, gmin):
        """Masked node-row residual contributions (C, B, E blocks).

        The gmin junction terms reuse the stacked voltages:
        ``sign * v_stack[:n] = vb - ve`` and ``sign * v_stack[n:2n] =
        vb - vc`` by construction.
        """
        n = self.n
        s = self.sign
        i_c = s * ic
        i_b = s * ib
        sv = s * gmin
        i_be = sv * v_stack[:n]
        i_bc = sv * v_stack[n : 2 * n]
        values = np.concatenate(
            [i_c - i_bc, i_b + i_be + i_bc, -(i_c + i_b) - i_be]
        )
        return values[self._res_sel]

    # -- assembly entry points -----------------------------------------
    def stamp_residual(
        self, x_ext: np.ndarray, residual: np.ndarray, gmin: float,
        ambient: float,
    ) -> None:
        """Accumulate the group's terminal currents into ``residual``."""
        laws = self._temperature_laws(ambient)
        v_stack = self._gather(x_ext)
        memo = self._memo
        if (
            memo is not None
            and memo[1] == gmin
            and np.array_equal(memo[0], v_stack)
        ):
            np.add.at(residual, self._res_rows, memo[2])
            return
        with np.errstate(over="ignore"):
            ic, ib, core = self._currents(v_stack, laws)
            values = self._residual_values(v_stack, ic, ib, gmin)
        self._memo = (v_stack, gmin, values, core)
        np.add.at(residual, self._res_rows, values)

    def stamp_full(
        self, x_ext: np.ndarray, residual: np.ndarray, gmin: float,
        ambient: float,
    ):
        """Residual accumulation plus the Jacobian COO triplets."""
        laws = self._temperature_laws(ambient)
        v_stack = self._gather(x_ext)
        memo = self._memo
        if (
            memo is not None
            and memo[1] == gmin
            and np.array_equal(memo[0], v_stack)
        ):
            values, core = memo[2], memo[3]
        else:
            with np.errstate(over="ignore"):
                ic, ib, core = self._currents(v_stack, laws)
                values = self._residual_values(v_stack, ic, ib, gmin)
            self._memo = (v_stack, gmin, values, core)
        np.add.at(residual, self._res_rows, values)
        with np.errstate(over="ignore"):
            dic_dvbe, dic_dvbc, dib_dvbe, dib_dvbc = self._derivatives(core)
            dic_sum = dic_dvbe + dic_dvbc
            dib_sum = dib_dvbe + dib_dvbc
            jac = np.concatenate([
                dic_sum - gmin,                    # (c, b)
                -dic_dvbe,                         # (c, e)
                -dic_dvbc + gmin,                  # (c, c)
                dib_sum + (gmin + gmin),           # (b, b)
                -dib_dvbe - gmin,                  # (b, e)
                -dib_dvbc - gmin,                  # (b, c)
                -dic_sum - dib_sum - gmin,         # (e, b)
                dic_dvbe + dib_dvbe + gmin,        # (e, e)
                dic_dvbc + dib_dvbc,               # (e, c)
            ])
        return self._jac_rows, self._jac_cols, jac[self._jac_sel]

    # -- AC (small-signal) ---------------------------------------------
    @staticmethod
    def _depletion(cj0, vj, m, v):
        """Vectorized SPICE depletion law with the FC linearisation
        (term-for-term the scalar ``_depletion_capacitance``)."""
        below = v < _FC * vj
        base = np.where(below, 1.0 - v / vj, 1.0 - _FC)
        edge = cj0 / (1.0 - _FC) ** m
        slope = edge * m / (vj * (1.0 - _FC))
        return np.where(below, cj0 / base**m, edge + slope * (v - _FC * vj))

    def ac_capacitance(self, x_ext: np.ndarray, ambient: float):
        """Junction ``dQ/dV`` COO triplets at the operating point.

        Mirrors :meth:`SpiceBJT.ac_stamp`: each junction whose
        capacitance is positive stamps the symmetric two-terminal block;
        zero-capacitance junctions are skipped entirely so a cap-free
        group leaves the C matrix truly empty (``frequency_flat``).
        """
        laws = self._temperature_laws(ambient)
        v_stack = self._gather(x_ext)
        n = self.n
        vbe = v_stack[:n]
        vbc = v_stack[n : 2 * n]
        c_be = np.where(
            self.cje > 0.0, self._depletion(self.cje, self.vje, self.mje, vbe), 0.0
        )
        c_bc = np.where(
            self.cjc > 0.0, self._depletion(self.cjc, self.vjc, self.mjc, vbc), 0.0
        )
        if np.any(self.tf > 0.0):
            with np.errstate(over="ignore"):
                _, _, core = self._currents(v_stack, laws)
                gm = self._derivatives(core)[0]
            c_be = c_be + np.where(self.tf > 0.0, self.tf * np.abs(gm), 0.0)
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        values = np.concatenate(
            [np.outer(signs, c_be).ravel(), np.outer(signs, c_bc).ravel()]
        )
        keep = (
            (self._cap_rows_raw >= 0)
            & (self._cap_cols_raw >= 0)
            & np.concatenate([np.tile(c_be > 0.0, 4), np.tile(c_bc > 0.0, 4)])
        )
        return (
            self._cap_rows_raw[keep].astype(np.intp),
            self._cap_cols_raw[keep].astype(np.intp),
            values[keep],
        )


class DiodeGroup(DeviceGroup):
    """All junction diodes of one system, evaluated in one pass."""

    kind = "diode"

    def __init__(self, devices: Sequence, size: int):
        super().__init__(devices, size)
        a_raw = np.array([el._node_idx[0] for el in devices])
        c_raw = np.array([el._node_idx[1] for el in devices])
        self._ga = self._gather_index(a_raw)
        self._gc = self._gather_index(c_raw)
        self.is_ = np.array([el.is_ for el in devices])
        self.n_ideality = np.array([el.n for el in devices])
        self.tnom = np.array([el.tnom for el in devices])
        self.xti_over_n = np.array([el.xti / el.n for el in devices])
        self.eg_over_n_k = np.array(
            [el.eg / (el.n * K_BOLTZMANN_EV) for el in devices]
        )
        self._res_sel, self._res_rows = _masked_pattern(
            np.concatenate([a_raw, c_raw]), None
        )
        # (a,a) (a,c) (c,a) (c,c)
        self._jac_sel, self._jac_rows, self._jac_cols = _masked_pattern(
            np.concatenate([a_raw, a_raw, c_raw, c_raw]),
            np.concatenate([a_raw, c_raw, a_raw, c_raw]),
        )

    def _temperature_laws(self, ambient: float):
        if self._laws_key == ambient:
            return self._laws
        t = self._device_temperatures(ambient)
        ratio = t / self.tnom
        delta = 1.0 / self.tnom - 1.0 / t
        sat = self.is_ * ratio**self.xti_over_n * np.exp(self.eg_over_n_k * delta)
        nvt = self.n_ideality * (K_OVER_Q * t)
        laws = (sat, 1.0 / nvt, sat / nvt)
        self._laws_key = ambient
        self._laws = laws
        self._memo = None
        return laws

    def _currents(self, vd, laws, gmin: float):
        """``(values, e_slope)``: masked residual contributions plus the
        exponential slope the derivative completion needs."""
        sat, inv_nvt, _ = laws
        e_val, e_slope = _limited_exp_array(vd * inv_nvt)
        i = sat * (e_val - 1.0) + gmin * vd
        return np.concatenate([i, -i])[self._res_sel], e_slope

    def stamp_residual(self, x_ext, residual, gmin: float, ambient: float) -> None:
        laws = self._temperature_laws(ambient)
        vd = x_ext[self._ga] - x_ext[self._gc]
        memo = self._memo
        if (
            memo is not None
            and memo[1] == gmin
            and np.array_equal(memo[0], vd)
        ):
            np.add.at(residual, self._res_rows, memo[2])
            return
        with np.errstate(over="ignore"):
            values, e_slope = self._currents(vd, laws, gmin)
        self._memo = (vd, gmin, values, e_slope)
        np.add.at(residual, self._res_rows, values)

    def stamp_full(self, x_ext, residual, gmin: float, ambient: float):
        laws = self._temperature_laws(ambient)
        vd = x_ext[self._ga] - x_ext[self._gc]
        memo = self._memo
        if (
            memo is not None
            and memo[1] == gmin
            and np.array_equal(memo[0], vd)
        ):
            values, e_slope = memo[2], memo[3]
        else:
            with np.errstate(over="ignore"):
                values, e_slope = self._currents(vd, laws, gmin)
            self._memo = (vd, gmin, values, e_slope)
        np.add.at(residual, self._res_rows, values)
        with np.errstate(over="ignore"):
            g = laws[2] * e_slope + gmin
            jac = np.concatenate([g, -g, -g, g])
        return self._jac_rows, self._jac_cols, jac[self._jac_sel]

    def ac_capacitance(self, x_ext, ambient: float):
        """Diodes store no charge in this model: no C entries."""
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, np.empty(0)


#: Smallest device class worth vectorizing.  A NumPy ufunc call costs
#: ~0.4-0.8 us of dispatch regardless of array length on the CI host,
#: and one junction evaluation is ~26 such calls, so a group pass has a
#: flat ~30 us floor; the scalar per-element stamp costs ~5 us per
#: device.  The break-even, measured on the CI host when grouping was
#: introduced, was ~13 devices; below the threshold the scalar path is
#: simply faster and the group is not built.  :func:`build_groups` reads
#: it at call time, so the test fixtures can patch it (1 groups every
#: class, a huge value none).
GROUP_MIN = 12


def build_groups(
    nonlinear: Sequence, size: int, min_size: Optional[int] = None
) -> Tuple[List[DeviceGroup], List]:
    """Partition nonlinear elements into vectorizable groups.

    Only *exact* instances of the known device classes group (a subclass
    may override ``stamp``, so it stays on the scalar path), and BJTs
    with an attached substrate transistor keep their scalar stamp (the
    substrate leakage's saturation-drive law is iterate-dependent in a
    way the packed arrays do not model).  Classes with fewer than
    ``min_size`` instances (default: :data:`GROUP_MIN`) stay scalar —
    below the dispatch-overhead crossover a group pass would be slower
    than the loop it replaces.  Returns ``(groups, leftover)`` with
    ``leftover`` preserving circuit order.
    """
    from .elements.bjt import SpiceBJT
    from .elements.diode import Diode

    if min_size is None:
        min_size = GROUP_MIN
    bjts = [
        el for el in nonlinear
        if type(el) is SpiceBJT and el.groupable
    ]
    diodes = [
        el for el in nonlinear if type(el) is Diode and el.groupable
    ]
    groups: List[DeviceGroup] = []
    grouped_ids = set()
    if len(bjts) >= min_size:
        groups.append(BJTGroup(bjts, size))
        grouped_ids.update(id(el) for el in bjts)
    if len(diodes) >= min_size:
        groups.append(DiodeGroup(diodes, size))
        grouped_ids.update(id(el) for el in diodes)
    leftover = [el for el in nonlinear if id(el) not in grouped_ids]
    return groups, leftover
