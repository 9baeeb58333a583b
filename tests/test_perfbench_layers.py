"""The benchmark's per-layer timing must find every entry point it wraps.

``perfbench/layers.py`` replaces engine and service methods by name for
its traced run.  Installing the wrappers here fails on a renamed or
removed entry point, and uninstalling them must restore every original,
so the tier-1 suite catches what the traced benchmark would trip over.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.layers import LayerRecorder, install_engine_layers  # noqa: E402


def test_engine_layers_install_and_uninstall_cleanly():
    recorder = LayerRecorder()
    try:
        install_engine_layers(recorder)
        patches = list(recorder._patches)
        assert patches
        for owner, name, original, _own in patches:
            assert getattr(owner, name).__wrapped__ is original
    finally:
        recorder.uninstall()
    for owner, name, original, own in patches:
        assert getattr(owner, name) is original
        assert (name in vars(owner)) == own
