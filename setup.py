"""Package metadata and legacy setup shim.

All package metadata lives here, in the ``setup()`` call below.  The
shim lets ``pip install -e . --no-use-pep517`` (and plain
``pip install -e .`` on older pips) take the classic
``setup.py develop`` path where setuptools is too old for PEP 660
editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
)
