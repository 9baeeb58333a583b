"""Experiment registry and result container.

The runner modules are imported on the first read of
:data:`EXPERIMENTS` (a lookup, a membership test, an iteration or a
length), not when this package is imported: importing one runner's
helpers, or starting the service, loads no other runner.  A spawned
pool worker's first lookup loads them the same way.
"""

from __future__ import annotations

import importlib
import threading
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import RETRYABLE_ERRORS, ExperimentError, ReproError
from ..parallel import supervised_map
from ..resilience import RunPolicy

#: The runner modules, in registration order: importing each runs its
#: ``@register`` decorators.
_RUNNER_MODULES = (
    "fig1_bandgap_models",
    "fig2_bias_principle",
    "fig5_ic_vbe_family",
    "fig6_characteristic_straight",
    "fig8_vref_curves",
    "table1_die_temperature",
    "ablations",
    "sub1v_extension",
    "startup_transient",
    "psrr_vref",
    "loop_gain",
    "zout_vref",
    "large_n",
    "service_warm_start",
)


class _Registry(MutableMapping):
    """Experiment id -> runner, filled by the runner modules on the
    first read.

    Writes do not load: :func:`register` fills the table while a runner
    module imports.  The first read imports the modules under a lock,
    so a concurrent first read waits for the whole registry.
    """

    def __init__(self):
        self._runners: Dict[str, Callable[[], "ExperimentResult"]] = {}
        self._loaded = False
        self._lock = threading.RLock()

    def _load(self) -> None:
        if self._loaded:
            return
        with self._lock:
            if not self._loaded:
                for module in _RUNNER_MODULES:
                    importlib.import_module(f"{__package__}.{module}")
                self._loaded = True

    def __getitem__(self, experiment_id):
        self._load()
        return self._runners[experiment_id]

    def __iter__(self):
        self._load()
        return iter(self._runners)

    def __len__(self):
        self._load()
        return len(self._runners)

    def __setitem__(self, experiment_id, runner):
        self._runners[experiment_id] = runner

    def __delitem__(self, experiment_id):
        del self._runners[experiment_id]


#: Registered experiment runners, keyed by experiment id.
EXPERIMENTS = _Registry()


@dataclass
class ExperimentResult:
    """Data regenerated for one paper artefact plus its shape checks.

    ``rows`` are the printable table rows (the same rows/series the
    paper reports); ``checks`` maps a shape-criterion name to whether it
    held; ``notes`` carries the paper-vs-measured commentary used by
    EXPERIMENTS.md.
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Tuple]
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def failing_checks(self) -> List[str]:
        return [name for name, ok in self.checks.items() if not ok]


def register(experiment_id: str):
    """Decorator adding a runner to the registry."""

    def wrap(func: Callable[[], ExperimentResult]):
        # The raw table: a membership test on EXPERIMENTS would load
        # every runner module from inside the first one imported.
        if experiment_id in EXPERIMENTS._runners:
            raise ReproError(f"duplicate experiment id {experiment_id!r}")
        EXPERIMENTS[experiment_id] = func
        return func

    return wrap


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one registered experiment."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return runner()


def _run_attributed(name: str) -> ExperimentResult:
    """Worker: run one experiment, attributing a terminal failure to its id.

    A raw exception escaping a process-pool worker loses the submitting
    call site (the traceback points into the pool plumbing), so a batch
    of twenty experiments used to fail without saying *which* one died.
    Wrapping here — inside the worker — bakes the experiment id into
    the exception message itself, which also survives pickling back to
    the parent (pickled exceptions keep their args, not their chained
    context).  Retryable errors pass through with their own type, so a
    run policy can still retry them.
    """
    try:
        return run_experiment(name)
    except (ExperimentError, *RETRYABLE_ERRORS):
        raise  # already attributed (an unknown name), or retryable
    except Exception as exc:
        raise ExperimentError(
            f"experiment {name!r} failed: {type(exc).__name__}: {exc}"
        ) from exc


def run_experiments(
    names: Sequence[str],
    max_workers: Optional[int] = None,
    policy: Optional["RunPolicy"] = None,
) -> Dict[str, ExperimentResult]:
    """Run the named experiments, serially or fanned over processes.

    One :func:`~repro.parallel.supervised_map` call runs the batch:
    ``max_workers=None`` runs it in this process, a count fans whole
    experiments over that many worker processes (non-positive: every
    core).  Experiments are independent of each other, so the results
    are identical regardless of worker count, and the workers' counters
    and trace spans come home with their results.  Unknown names raise
    through :func:`run_experiment` before any work is dispatched, and a
    terminal runner failure surfaces as
    :class:`~repro.errors.ExperimentError` carrying the failing
    experiment's id (see :func:`_run_attributed`).

    With a :class:`~repro.resilience.RunPolicy` the batch runs
    supervised and the mapping's values become per-experiment
    :class:`~repro.resilience.Outcome` records (indexed by position in
    ``names``): one crashed figure no longer takes the rest of the
    regeneration run down with it, retryable failures are re-attempted
    per the policy, and the active fault-injection plan is honoured.
    """
    for name in names:
        if name not in EXPERIMENTS:
            run_experiment(name)  # raises with the known-experiment list
    outcomes = supervised_map(
        _run_attributed, names, policy=policy, max_workers=max_workers
    )
    if policy is None:
        return {name: outcome.value for name, outcome in zip(names, outcomes)}
    return dict(zip(names, outcomes))


def run_all(max_workers: Optional[int] = None) -> Dict[str, ExperimentResult]:
    """Run every registered experiment in id order."""
    return run_experiments(sorted(EXPERIMENTS), max_workers=max_workers)
