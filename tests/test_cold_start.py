"""Cold start: each entry point imports only what its mode runs.

Every probe runs in a fresh interpreter, because this one has long
since imported everything.  ``scipy.optimize`` (about 0.15 s) serves
only the Gummel-Poon inversions, the experiment runner modules load on
the first registry lookup, and the urllib client needs neither numpy
nor the engine.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Every experiment, in the order its runner module registers it.
REGISTERED = [
    "fig1", "fig2", "fig5", "fig6", "fig8", "table1",
    "ablation_sensitivity", "ablation_current_ratio", "ablation_solver",
    "sub1v_extension", "startup_transient", "psrr_vref", "loop_gain",
    "zout_vref", "large_n", "service_warm_start",
]


def fresh(code: str):
    """Run ``code`` in a fresh interpreter; returns the set of modules
    it left loaded and the lines it printed."""
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import sys as _sys
        _loaded = sorted(_sys.modules)
        import json as _json
        print(_json.dumps(_loaded))
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, modules = proc.stdout.splitlines()
    return set(json.loads(modules)), printed


@pytest.fixture(scope="module")
def runner_of():
    """Experiment id -> runner module, as a fresh interpreter's first
    registry read sees them."""
    _, printed = fresh(
        """
        import json
        from repro.experiments import EXPERIMENTS
        print(json.dumps({name: run.__module__ for name, run in EXPERIMENTS.items()}))
        """
    )
    return json.loads(printed[0])


def _under(loaded, package):
    return sorted(m for m in loaded if m == package or m.startswith(package + "."))


def test_first_registry_read_registers_every_experiment(runner_of):
    assert list(runner_of) == REGISTERED


@pytest.mark.parametrize("module", ["repro.spice", "repro.serve.server"])
def test_engine_and_server_import_no_optimizer_and_no_experiment(module):
    loaded, _ = fresh(f"import {module}")
    assert _under(loaded, "scipy.optimize") == []
    assert _under(loaded, "repro.experiments") == []
    assert _under(loaded, "repro.parallel") == []


def test_experiment_helper_imports_no_other_runner(runner_of):
    loaded, _ = fresh("import repro.experiments.ac_common")
    assert sorted(set(runner_of.values()) & loaded) == []
    assert _under(loaded, "repro.serve") == []
    assert _under(loaded, "scipy.optimize") == []


def test_serve_mode_loads_no_runner(runner_of):
    loaded, printed = fresh(
        """
        import repro.serve.server
        calls = []
        repro.serve.server.serve = lambda **kwargs: calls.append(kwargs)
        from repro.cli import main
        print(main(["--serve", "--port", "0"]), len(calls))
        """
    )
    assert printed == ["0 1"]
    assert sorted(set(runner_of.values()) & loaded) == []
    assert _under(loaded, "scipy.optimize") == []


def test_client_imports_no_numpy_and_no_engine():
    loaded, _ = fresh("import repro.serve.client")
    assert _under(loaded, "numpy") == []
    assert _under(loaded, "repro.spice") == []


def test_spawned_worker_loads_the_registry_itself():
    # A spawned worker imports repro afresh: its first lookup must load
    # the runners, since nothing it inherits has read the registry.
    _, printed = fresh(
        """
        import multiprocessing
        from repro.experiments.registry import run_experiments

        multiprocessing.set_start_method("spawn")
        fanned = run_experiments(["fig1", "fig2"], max_workers=2)
        print(sorted(name for name, result in fanned.items() if result.passed))
        """
    )
    assert printed == ["['fig1', 'fig2']"]
