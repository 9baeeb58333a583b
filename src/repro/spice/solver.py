"""Damped Newton-Raphson DC solver with gmin and source stepping.

Strategy (mirrors what production SPICE engines do, scaled down):

1. plain damped Newton from the supplied initial point (zeros if none).
   A *cold* run — no caller seed and no cached warm start — is only a
   cheap probe: it gets a fifth of ``STALL_WINDOW`` before the ladder
   takes over, while a seeded run keeps the full window.  It returns
   its zero start only where the residual there is exactly zero, so a
   source below the tolerances still moves the answer;
2. on failure, **gain stepping**: ramp every op-amp's open-loop gain
   from unity to its final value (a low-gain loop is barely nonlinear;
   the solution trajectory in gain is smooth) — this is what makes the
   bandgap cell's stiff feedback loop routine.  The ramp is a
   predictor–corrector continuation: each rung starts from the secant
   through the last two converged rungs (in ``1/gain``), a quick rung
   squares the ratio and a failed one backs off to its square root;
3. on failure, **gmin stepping**: converge with a large gmin (1e-3 S from
   every node to ground makes the system nearly linear), then tighten
   gmin decade by decade, warm-starting each stage;
4. on failure, **source stepping**: ramp all independent sources from 0
   to 100 % (the zero-source circuit converges trivially), warm-starting
   each step.

:class:`SolverOptions` holds what the answer must meet; how the solver
gets there is fixed by the module constants next to it.

A chained sweep point passes the previous point as ``x0`` and the
secant extrapolation through the two before it as ``predicted``
(:func:`secant_start`, the transient's predictor too): plain Newton
runs from the prediction first and from ``x0`` second, and the ladder
starts from ``x0``.

Damping is two-fold: the Newton step is scaled so no unknown moves more
than ``MAX_STEP_V`` per iteration (the guard against the junction
exponential catapulting the iterate), and a backtracking line search
halves the step until the residual decreases (the guard against
rail-to-rail oscillation in stiff op-amp loops), in the raw inf-norm of
F or in tolerance units, ``max(kcl / abstol, branch / vtol)``: the
convergence test's units, in which a gain-amplified op-amp branch row
at its float floor cannot mask KCL rows that contract.

Linear algebra goes through a :class:`NewtonWorkspace` implementing the
production-SPICE factorization policy on top of :func:`lu`, the one LU
routine the DC, transient and AC analyses share:

* **LU reuse (modified Newton)**: the factorization from an earlier
  iterate (or earlier transient timestep) is kept while it still
  contracts the tolerance-unit residual by ``REUSE_CONTRACTION`` per
  full step; on slowdown the Jacobian is refactored at the current
  iterate.  Far from the solution the Jacobian changes every iteration
  and reuse buys nothing, but in the convergence tail — and across the
  small timesteps of a transient — most factorizations are redundant.
* **dense or sparse, as assembled**: :func:`lu` factors whatever
  matrix the system hands it — ``scipy.sparse.linalg.splu`` for a
  sparse matrix, raw LAPACK ``getrf`` for a real or complex ndarray —
  so the size rule lives in one place,
  :class:`~repro.spice.mna.MNASystem`, which assembles sparse at
  ``SPARSE_MIN_UNKNOWNS`` (200) or more unknowns.  The sparse assembly
  mode hands ``splu`` its native CSC format directly (conversions are
  counted in ``STATS.sparse_conversions`` and stay at zero end-to-end),
  the fill-reducing ordering is pinned (``SPARSE_PERMC``), and stale-LU
  reuse runs a cost-aware policy: sparse factors get a higher
  consecutive-reuse cap and a relaxed contraction demand
  (``SPARSE_REUSE_LIMIT`` / ``SPARSE_REUSE_CONTRACTION``) because each
  skipped factorization is worth milliseconds there, not microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import SuperLU
from scipy.sparse.linalg import splu as _splu

from ..errors import ConvergenceError
from ..telemetry import tracer as _tele
from .elements.base import TransientContext
from .mna import MNASystem
from .netlist import Circuit
from .stats import STATS

# Raw LAPACK getrf/getrs: scipy's lu_factor/lu_solve wrappers spend
# more time in Python-level validation than LAPACK spends factoring the
# ~20-unknown matrices this repo's circuits produce.
_REAL_LAPACK = get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)
_COMPLEX_LAPACK = get_lapack_funcs(("getrf", "getrs"), dtype=np.complex128)

#: What a failed factorization or back-substitution raises
#: (``np.linalg.LinAlgError`` is a ``ValueError``).
_LU_ERRORS = (ValueError, RuntimeError)


class _DenseLU:
    """Dense LAPACK LU factors behind ``splu``'s ``solve`` interface."""

    __slots__ = ("_lu", "_piv", "_getrs")

    def __init__(self, lu_factors: np.ndarray, piv: np.ndarray, getrs):
        self._lu = lu_factors
        self._piv = piv
        self._getrs = getrs

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        solution, info = self._getrs(self._lu, self._piv, rhs)
        if info != 0:
            raise np.linalg.LinAlgError("LU back-substitution failed")
        return solution


#: A factorization :func:`lu` returns; both kinds ``solve(rhs)``.
LU = Union[_DenseLU, SuperLU]


def lu(matrix) -> Optional[LU]:
    """Factor ``matrix``; None when it is singular.

    A real or complex ndarray factors through LAPACK ``getrf``;
    ``info > 0`` (exactly singular, routine during the stepping
    ladders) and ``info < 0`` (bad input) both return None.  Anything
    else is a ``scipy.sparse`` matrix and factors through ``splu`` with
    the ``SPARSE_PERMC`` column ordering.  The sparse assembly mode
    already produces CSC, so the common case is a zero-copy
    pass-through; a sparse matrix in another format pays a conversion,
    counted in ``STATS.sparse_conversions`` so benchmarks can assert the
    pipeline never re-walks a matrix per factorization.
    """
    try:
        if isinstance(matrix, np.ndarray):
            getrf, getrs = _COMPLEX_LAPACK if matrix.dtype.kind == "c" else _REAL_LAPACK
            lu_factors, piv, info = getrf(matrix, overwrite_a=False)
        else:
            if matrix.format != "csc":
                matrix = matrix.tocsc()
                STATS.sparse_conversions += 1
            return _splu(matrix, permc_spec=SPARSE_PERMC)
    except _LU_ERRORS:
        return None
    if info != 0:
        return None
    return _DenseLU(lu_factors, piv, getrs)


@dataclass(frozen=True)
class SolverOptions:
    """What a Newton solve's answer must meet (the defaults handle every
    circuit in the repo); values no solve can meet raise ``ValueError``."""

    #: Iteration budget of each Newton run, and of the gain ramp's rungs.
    max_iterations: int = 150
    #: KCL residual tolerance [A] (node rows).
    abstol: float = 1e-12
    #: Branch-equation residual tolerance [V] (voltage-defined rows).
    #: Branch rows are in volts and, for op-amp macros, carry the input
    #: subtraction noise amplified by the open-loop gain — float64 cannot
    #: push them below ~gain * 1e-16 V, hence the looser tolerance.
    vtol: float = 1e-8
    #: Final gmin from every node to ground [S].
    gmin: float = 1e-12

    def __post_init__(self):
        for name, ok, expected in (
            ("max_iterations", self.max_iterations >= 1, "at least 1"),
            ("abstol", 0.0 < self.abstol < math.inf, "positive and finite"),
            ("vtol", 0.0 < self.vtol < math.inf, "positive and finite"),
            ("gmin", 0.0 <= self.gmin < math.inf, "non-negative and finite"),
        ):
            if not ok:
                value = getattr(self, name)
                raise ValueError(f"{name} must be {expected}, got {value!r}")


#: Per-iteration cap on the largest unknown update [V].
MAX_STEP_V = 0.5
#: gmin ladder for stepping (descending) [S].
GMIN_LADDER = (1e-3, 1e-5, 1e-7, 1e-9, 1e-12)
#: Source-stepping ramp; it ends at full source.
SOURCE_RAMP = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
#: First gain-stepping ratio for op-amp macro-models (step control
#: adapts it, never below it; see :func:`_gain_stepping`).  The gentle
#: value suits the first rungs, where an unpredicted warm start sits at
#: ``ratio * arg*`` of the tanh and ratios beyond ~e saturate it.
GAIN_RAMP_RATIO = 2.0
#: Gain-ramp step control: a rung that converges within this many
#: counted iterations squares the ramp ratio for the next rung...
_FAST_RUNG_ITERATIONS = 6
#: ...up to this ratio.
_MAX_RAMP_RATIO = 16.0
#: Modified Newton keeps a stale LU across iterations and timesteps
#: while a full stale step shrinks the residual in tolerance units by
#: at least ``REUSE_CONTRACTION``, and for at most ``REUSE_LIMIT`` steps
#: in a row (0 is plain Newton); otherwise it refactors at the current
#: iterate.  Only the step *direction* lags, never the convergence test,
#: and near-quadratic contraction confines reuse to where the Jacobian
#: is genuinely unchanged (transient steps, warm-started sweep points).
REUSE_LIMIT = 4
REUSE_CONTRACTION = 0.1
#: ``splu``'s fill-reducing column ordering (scipy's own default).
SPARSE_PERMC = "COLAMD"
#: The stale-LU policy for *sparse* factors: a 1k+-unknown splu costs
#: milliseconds where the dense ~20-unknown LU costs microseconds, so
#: longer streaks of weaker stale steps (each only a triangular solve)
#: pay off there.  Dense factors keep the strict policy above.
SPARSE_REUSE_LIMIT = 16
SPARSE_REUSE_CONTRACTION = 0.4
#: Stagnation bail-out: a Newton run whose best residual norm has not
#: shrunk by ``STALL_IMPROVEMENT`` over this many iterations fails at
#: once instead of grinding to ``max_iterations``, so a hopeless start
#: (the bandgap cell without gain stepping) hands over to the ladder
#: early.  Seeded and cache-warm plain runs, every ladder stage and
#: every transient step get the full window; a *cold* plain run (no
#: ``x0``, no cache candidate) is only a probe and gets a fifth of it
#: (8 iterations, never below 1).  Zero disables the bail-out.
STALL_WINDOW = 40
STALL_IMPROVEMENT = 0.5


@dataclass
class RawSolution:
    """Solver output: the unknown vector plus diagnostics."""

    x: np.ndarray
    iterations: int
    residual: float
    strategy: str = "newton"
    #: Fresh factorizations spent on this solve.
    factorizations: int = 0
    #: Iterations advanced on a reused (stale) factorization.
    lu_reuses: int = 0


class NewtonWorkspace:
    """Reusable linear-solve state shared across Newton runs.

    Owns the current factorization (from :func:`lu`) plus its staleness
    flag and counters.  One workspace follows a system through all
    stepping strategies of a DC solve, and through every timestep of a
    transient — which is what makes cross-timestep LU reuse possible.
    """

    def __init__(self):
        self._lu: Optional[LU] = None
        self._size: int = -1
        #: True once the owning iterate has moved on (the factorization
        #: no longer matches the Jacobian at the current x).
        self.stale: bool = False
        #: Stale steps taken since the last fresh factorization.
        self.consecutive_reuses: int = 0
        self.factorizations: int = 0
        self.reuses: int = 0

    @property
    def has_factorization(self) -> bool:
        return self._lu is not None

    @property
    def is_sparse(self) -> bool:
        """True while the held factorization is a sparse ``splu``
        (selects the sparse-tuned stale-LU reuse policy)."""
        return isinstance(self._lu, SuperLU)

    def invalidate(self) -> None:
        self._lu = None
        self._size = -1

    def match_size(self, size: int) -> None:
        """Drop the factorization if the system dimension changed."""
        if self._size != size:
            self.invalidate()
            self._size = size

    def factor(self, jacobian: np.ndarray) -> bool:
        """Factor the Jacobian through :func:`lu`; False if it is
        singular."""
        trc = _tele.ACTIVE
        if trc is None or not trc.detailed:
            return self._factor(jacobian)
        t0 = trc.clock()
        ok = self._factor(jacobian)
        trc.leaf("factorization", t0, sparse=self.is_sparse, ok=ok)
        return ok

    def _factor(self, jacobian: np.ndarray) -> bool:
        factors = lu(jacobian)
        if factors is None:
            self.invalidate()
            return False
        self._lu = factors
        if self.is_sparse:
            STATS.sparse_factorizations += 1
        self._size = jacobian.shape[0]
        self.stale = False
        self.consecutive_reuses = 0
        self.factorizations += 1
        STATS.factorizations += 1
        return True

    def solve(self, rhs: np.ndarray) -> Optional[np.ndarray]:
        """Solve against the held factorization; None on blow-up."""
        try:
            step = self._lu.solve(rhs)
        except _LU_ERRORS:
            return None
        if not np.all(np.isfinite(step)):
            return None
        return step


def _newton(
    system: MNASystem,
    x0: np.ndarray,
    options: SolverOptions,
    gmin: float,
    source_scale: float,
    time: Optional[float] = None,
    transient: Optional[TransientContext] = None,
    workspace: Optional[NewtonWorkspace] = None,
    phase: str = "plain",
    stall_window: Optional[int] = None,
    cold: bool = False,
) -> Optional[RawSolution]:
    """One damped Newton run; None if it does not converge.

    ``time``/``transient`` are forwarded to the assembly so the same
    damping/line-search machinery serves the DC analyses and every
    timestep re-solve of the transient engine.  ``workspace`` carries
    the LU factorization (and its reuse policy) across calls.
    ``phase`` labels the run's ``newton_solve`` span when a detailed
    tracer is installed (which strategy-ladder rung asked for it).
    ``stall_window`` overrides ``STALL_WINDOW`` for this run; an
    explicit window is recorded on the span.  A ``cold`` run returns
    its start only where the residual there is exactly zero.
    """
    window = STALL_WINDOW if stall_window is None else stall_window
    trc = _tele.ACTIVE
    if trc is None or not trc.detailed:
        solution = _newton_run(
            system, x0, options, gmin, source_scale, time, transient,
            workspace, window, cold, None,
        )
        if solution is None:
            STATS.newton_failures += 1
        return solution
    attrs = {"phase": phase}
    if stall_window is not None:
        attrs["stall_window"] = stall_window
    with trc.span("newton_solve", **attrs) as span:
        solution = _newton_run(
            system, x0, options, gmin, source_scale, time, transient,
            workspace, window, cold, trc,
        )
        span.attrs["converged"] = solution is not None
        if solution is not None:
            span.attrs["iterations"] = solution.iterations
        else:
            STATS.newton_failures += 1
            span.attrs.setdefault("reason", "max_iterations")
        return solution


def _newton_run(
    system: MNASystem,
    x0: np.ndarray,
    options: SolverOptions,
    gmin: float,
    source_scale: float,
    time: Optional[float],
    transient: Optional[TransientContext],
    workspace: Optional[NewtonWorkspace],
    stall_window: int,
    cold: bool,
    trc: Optional["_tele.Tracer"],
) -> Optional[RawSolution]:
    ws = workspace if workspace is not None else NewtonWorkspace()
    ws.match_size(system.size)
    factorizations_before = ws.factorizations
    reuses_before = ws.reuses
    x = x0.copy()
    n_nodes = system.n_nodes
    abstol, vtol = options.abstol, options.vtol

    def evaluate(candidate: np.ndarray):
        """F(candidate), its inf-norm, the norm in tolerance units
        (KCL rows per ``abstol``, branch rows per ``vtol``) and whether
        both row types meet their tolerance."""
        trial = system.assemble_residual(
            candidate,
            gmin=gmin,
            source_scale=source_scale,
            time=time,
            transient=transient,
        )
        abs_trial = np.abs(trial)
        kcl = float(abs_trial[:n_nodes].max()) if n_nodes else 0.0
        branch = float(abs_trial[n_nodes:].max()) if trial.size > n_nodes else 0.0
        done = kcl < abstol and branch < vtol
        return trial, max(kcl, branch), max(kcl / abstol, branch / vtol), done

    STATS.newton_solves += 1
    # The residual vector is carried across iterations: a line-search or
    # reuse-probe evaluation at the accepted candidate IS the next
    # iterate's residual, so the loop never recomputes F(x) it already
    # knows.  The full (J, F) assembly runs only when a factorization is
    # actually taken.
    residual, norm, scaled, done = evaluate(x)
    best_norm = norm
    stall_best = norm
    stall_deadline = stall_window
    for iteration in range(1, options.max_iterations + 1):
        STATS.iterations += 1
        # The residual of *this* iterate is converged; return it.  A
        # cold start takes at least one step unless its residual is
        # exactly zero: a source below abstol or vtol still moves x.
        if done and not (cold and iteration == 1 and norm):
            return RawSolution(
                x=x,
                iterations=iteration,
                residual=norm,
                factorizations=ws.factorizations - factorizations_before,
                lu_reuses=ws.reuses - reuses_before,
            )
        if stall_window and iteration > stall_deadline:
            if best_norm > STALL_IMPROVEMENT * stall_best:
                # No meaningful progress in a whole window: this run is
                # not going to make it — hand over to the fallback
                # ladder now rather than at max_iterations.
                if trc is not None:
                    trc.annotate(reason="stagnation")
                return None
            stall_best = best_norm
            stall_deadline = iteration + stall_window

        # -- modified-Newton fast path: try the stale factorization.
        # Only the undamped step is probed, and only while it stays
        # inside the MAX_STEP_V junction guard — a stale LU that wants a
        # big move (cold start, snap-on) gets a fresh Jacobian with the
        # full damping machinery instead.  Strong contraction plus the
        # consecutive-reuse cap keep reuse from trading one saved
        # factorization for many linearly-converging iterations.
        guard = None
        # The reuse policy is factorization-cost-aware: sparse splu
        # factors (1k+ unknowns, milliseconds each) tolerate more and
        # weaker stale steps than dense LU (microseconds each), whose
        # strict policy is unchanged.
        sparse = ws.is_sparse
        reuse_limit = SPARSE_REUSE_LIMIT if sparse else REUSE_LIMIT
        reuse_contraction = SPARSE_REUSE_CONTRACTION if sparse else REUSE_CONTRACTION
        if ws.stale and ws.has_factorization and ws.consecutive_reuses < reuse_limit:
            step = ws.solve(residual)
            if step is None:
                guard = "solve_failed"
            elif step.size != 0 and float(np.abs(step).max()) > MAX_STEP_V:
                guard = "step_bound"
            else:
                candidate = x - step
                trial, trial_norm, trial_scaled, trial_done = evaluate(candidate)
                if trial_scaled < reuse_contraction * scaled:
                    ws.reuses += 1
                    ws.consecutive_reuses += 1
                    STATS.lu_reuses += 1
                    x, residual, norm, scaled, done = (
                        candidate, trial, trial_norm, trial_scaled, trial_done,
                    )
                    best_norm = min(best_norm, norm)
                    if trc is not None:
                        trc.iteration(
                            i=iteration,
                            residual=norm,
                            scaled=scaled,
                            step=float(np.abs(step).max()) if step.size else 0.0,
                            damping=1.0,
                            kind="reuse",
                        )
                    continue
                guard = "no_contraction"
        elif trc is not None and ws.stale and ws.has_factorization:
            guard = "reuse_limit"

        # -- full Newton: factor at the current iterate.
        jacobian, _ = system.assemble(
            x, gmin=gmin, source_scale=source_scale, time=time, transient=transient
        )
        if not ws.factor(jacobian):
            if trc is not None:
                trc.annotate(reason="singular_jacobian")
            return None
        step = ws.solve(residual)
        if step is None:
            if trc is not None:
                trc.annotate(reason="singular_jacobian")
            return None
        max_step = float(np.abs(step).max()) if step.size else 0.0
        clamp = 1.0 if max_step <= MAX_STEP_V else MAX_STEP_V / max_step
        # Backtracking line search over a damping ladder: the full Newton
        # step first (solves linear and mildly nonlinear systems in one
        # go), then the MAX_STEP_V clamp (junction guard), then halvings.
        # A candidate is accepted as soon as the residual decreases in
        # either the raw inf-norm or tolerance units; Newton's direction
        # is a descent direction for |F|, so some scale improves unless
        # we are at a stationary point.  When no rung decreases either,
        # the smallest rung is taken: it was the ladder's last
        # evaluation, so its residual is already in hand.
        ladder = [1.0] if clamp == 1.0 else [1.0, clamp]
        ladder += [clamp * 0.5**k for k in range(1, 12)]
        for damping in ladder:
            candidate = x - damping * step
            trial, trial_norm, trial_scaled, trial_done = evaluate(candidate)
            if trial_norm < norm or trial_scaled < scaled:
                break
        x, residual, norm, scaled, done = (
            candidate, trial, trial_norm, trial_scaled, trial_done,
        )
        best_norm = min(best_norm, norm)
        if trc is not None:
            record = {
                "i": iteration,
                "residual": norm,
                "scaled": scaled,
                "step": max_step,
                "damping": damping,
                "kind": "factor",
            }
            if guard is not None:
                record["guard"] = guard
            trc.iteration(**record)
        # Whatever happens next, this factorization refers to a bygone
        # iterate.
        ws.stale = True
    return None


def secant_start(
    x_prev: Optional[np.ndarray],
    x_last: np.ndarray,
    step: float,
    step_prev: float,
) -> np.ndarray:
    """Secant predictor: the next start extrapolated from two solutions.

    ``x_last + (x_last - x_prev) * (step / step_prev)``, where
    ``step_prev`` is the parameter distance between the two solved
    points and ``step`` the distance from the last one to the next.
    With no earlier point (``x_prev`` is None) or a repeated parameter
    value (``step_prev == 0``) it returns ``x_last`` unchanged.
    """
    if x_prev is None or step_prev == 0.0:
        return x_last
    return x_last + (x_last - x_prev) * (step / step_prev)


class SecantChain:
    """The last two solved points of a continuation, for secant starts.

    ``push(value, x)`` records a solved point; ``start(value)`` is the
    :func:`secant_start` prediction at the next parameter value (the
    last point itself while only one is solved, ``None`` before).
    """

    __slots__ = ("value", "x", "value_prev", "x_prev")

    def __init__(self):
        self.value: Optional[float] = None
        self.x: Optional[np.ndarray] = None
        self.value_prev: Optional[float] = None
        self.x_prev: Optional[np.ndarray] = None

    def start(self, value: float) -> Optional[np.ndarray]:
        if self.x_prev is None:
            return self.x
        return secant_start(
            self.x_prev, self.x, value - self.value, self.value - self.value_prev
        )

    def push(self, value: float, x: np.ndarray) -> None:
        self.value_prev, self.x_prev = self.value, self.x
        self.value, self.x = value, x


def _gain_stepping(
    system: MNASystem,
    circuit: Circuit,
    start: np.ndarray,
    options: SolverOptions,
    time: Optional[float] = None,
    workspace: Optional[NewtonWorkspace] = None,
) -> Optional[RawSolution]:
    """Ramp op-amp open-loop gains from 1 to final, under step control.

    The ramp is natural-parameter continuation in the gain.  Its first
    ratio is ``GAIN_RAMP_RATIO``; a rung that converges within
    ``_FAST_RUNG_ITERATIONS`` squares the ratio (capped at
    ``_MAX_RAMP_RATIO``), and a failed rung returns to the last
    converged gain with the ratio's square root, but never with less
    than the first ratio.  Each rung starts from the secant prediction
    in ``1/gain`` through the last two converged rungs (the equilibrium
    tanh argument is gain-independent, so the loop's input error moves
    as ``1/gain``).  The rung that sets every amp to its final gain is
    the answer.  Gives up when the first rung fails, when a rung at the
    first ratio fails (past a gain the loop cannot pass, smaller steps
    would only creep up on it), or after ``options.max_iterations``
    rungs, failed ones included, so even a first ratio barely above 1
    cannot hold the solver indefinitely.
    """
    from .elements.opamp import OpAmp

    amps = [el for el in circuit.elements if isinstance(el, OpAmp)]
    if not amps:
        return None
    final_gains = [amp.gain for amp in amps]
    max_gain = max(final_gains)
    trc = _tele.ACTIVE
    rungs = 0
    # Converged rungs, parameterised by 1/gain.
    chain = SecantChain()
    last_gain = None
    gain = 1.0
    ratio = GAIN_RAMP_RATIO
    try:
        while rungs < options.max_iterations:
            for amp, final in zip(amps, final_gains):
                amp.gain = min(final, gain)
            rungs += 1
            predicted = chain.start(1.0 / gain)
            stage = _newton(
                system, start if predicted is None else predicted, options,
                gmin=options.gmin, source_scale=1.0, time=time,
                workspace=workspace, phase=f"gain[{rungs}]",
            )
            if stage is None:
                # The ratio never drops below the first one: a failed
                # rung there ends the ramp, as it did before step control.
                if last_gain is None or ratio <= GAIN_RAMP_RATIO:
                    return None
                ratio = max(ratio**0.5, GAIN_RAMP_RATIO)
                gain = last_gain * ratio
                continue
            if gain >= max_gain:
                stage.strategy = "gain-stepping"
                return stage
            chain.push(1.0 / gain, stage.x)
            last_gain = gain
            if stage.iterations <= _FAST_RUNG_ITERATIONS and ratio < _MAX_RAMP_RATIO:
                ratio = min(ratio * ratio, _MAX_RAMP_RATIO)
            gain *= ratio
        return None
    finally:
        for amp, final in zip(amps, final_gains):
            amp.gain = final
        if trc is not None:
            trc.annotate(gain_rungs=rungs)


def solve_dc_system(
    system: MNASystem,
    options: Optional[SolverOptions] = None,
    x0: Optional[np.ndarray] = None,
    time: Optional[float] = None,
    workspace: Optional[NewtonWorkspace] = None,
    predicted: Optional[np.ndarray] = None,
) -> RawSolution:
    """Solve the DC operating point of a caller-owned :class:`MNASystem`;
    raises ConvergenceError on failure.

    ``time`` pins waveform sources to their instantaneous value at that
    simulation time (capacitors stay open — this is still a DC solve);
    the transient engine uses it to compute the pre-ramp initial point
    and the post-ramp reference operating point.

    The sweep-point entry: the caller keeps one system per topology
    (re-temperaturing it with :meth:`MNASystem.set_temperature`) and one
    :class:`NewtonWorkspace`, so the compiled linear caches and the LU
    factorization survive from one sweep point to the next — a
    warm-started neighbouring point routinely converges entirely on the
    previous point's factorization.  Callers that mutate *linear*
    element values between solves must call :meth:`MNASystem.invalidate`
    themselves.

    ``predicted`` is a continuation's extrapolated start (a
    :func:`secant_start`).  Plain Newton runs from it first; if that
    fails, plain Newton runs from ``x0`` (the previous point) before
    any ladder rung, and the ladder starts from ``x0`` as it would
    without a prediction — so a prediction never decides the branch.
    A prediction equal to ``x0`` is no prediction.
    """
    trc = _tele.ACTIVE
    if trc is None or not trc.detailed:
        return _solve_dc_system_impl(
            system, options, x0, time, workspace, predicted, None
        )
    with trc.span("dc_solve") as span:
        try:
            solution = _solve_dc_system_impl(
                system, options, x0, time, workspace, predicted, trc
            )
        except ConvergenceError:
            span.attrs["converged"] = False
            raise
        span.attrs["converged"] = True
        span.attrs["strategy"] = solution.strategy
        return solution


def _solve_dc_system_impl(
    system: MNASystem,
    options: Optional[SolverOptions],
    x0: Optional[np.ndarray],
    time: Optional[float],
    workspace: Optional[NewtonWorkspace],
    predicted: Optional[np.ndarray],
    trc: Optional["_tele.Tracer"],
) -> RawSolution:
    circuit = system.circuit
    options = options or SolverOptions()
    workspace = workspace if workspace is not None else NewtonWorkspace()
    start = np.zeros(system.size) if x0 is None else np.asarray(x0, dtype=float).copy()
    if start.shape != (system.size,):
        raise ConvergenceError(
            f"initial point has {start.shape} unknowns, circuit needs {system.size}"
        )

    if predicted is not None:
        predicted = np.asarray(predicted, dtype=float)
        if predicted.shape != start.shape:
            raise ConvergenceError(
                f"predicted start has {predicted.shape} unknowns, "
                f"circuit needs {system.size}"
            )
        if not np.array_equal(predicted, start):
            solution = _newton(
                system, predicted, options, gmin=options.gmin, source_scale=1.0,
                time=time, workspace=workspace, phase="predicted",
            )
            if solution is not None:
                STATS.record_strategy(solution.strategy)
                return solution

    # A cold start (no seed, no cached warm start) that is not halving
    # its residual is almost always a stiff loop plain Newton cannot
    # converge, so it gets the short window and hands over early.
    window = STALL_WINDOW
    if x0 is None and window:
        window = max(1, window // 5)
    solution = _newton(
        system, start, options, gmin=options.gmin, source_scale=1.0, time=time,
        workspace=workspace, phase="plain", stall_window=window, cold=x0 is None,
    )
    if solution is not None:
        STATS.record_strategy(solution.strategy)
        return solution

    # Gain stepping (only useful when op-amp macros are present).
    solution = _gain_stepping(
        system, circuit, start, options, time=time, workspace=workspace
    )
    if solution is not None:
        STATS.record_strategy(solution.strategy)
        return solution

    # gmin stepping.
    x = start.copy()
    failed = False
    rungs = 0
    for gmin in GMIN_LADDER:
        rungs += 1
        stage = _newton(
            system, x, options, gmin=gmin, source_scale=1.0, time=time,
            workspace=workspace, phase=f"gmin[{gmin:g}]",
        )
        if stage is None:
            failed = True
            break
        x = stage.x
    if trc is not None:
        trc.annotate(gmin_rungs=rungs)
    if not failed:
        final = _newton(
            system, x, options, gmin=options.gmin, source_scale=1.0, time=time,
            workspace=workspace, phase="gmin[final]",
        )
        if final is not None:
            final.strategy = "gmin-stepping"
            STATS.record_strategy(final.strategy)
            return final

    # Source stepping, finishing at full source.
    x = np.zeros(system.size)
    steps = 0
    for scale in SOURCE_RAMP:
        steps += 1
        stage = _newton(
            system, x, options, gmin=options.gmin, source_scale=scale, time=time,
            workspace=workspace, phase=f"source[{scale:g}]",
        )
        if stage is None:
            if trc is not None:
                trc.annotate(source_steps=steps)
            raise ConvergenceError(
                f"DC solve failed (source stepping stalled at {scale:.0%}) "
                f"for circuit {circuit.title!r} at {system.temperature_k:.2f} K"
            )
        x = stage.x
    if trc is not None:
        trc.annotate(source_steps=steps)
    stage.strategy = "source-stepping"
    STATS.record_strategy(stage.strategy)
    return stage
