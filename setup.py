"""Setuptools entry point.

The build metadata lives here (rather than only in ``pyproject.toml``) so the
package installs with ``pip install -e .`` even on environments whose
setuptools predates full PEP 621 support and that have no network access for
build isolation.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "A Calculus for Complex Objects (Bancilhon & Khoshafian, PODS 1986) — "
        "full reproduction: complex-object lattice, object calculus, relational/"
        "Datalog baselines, schema and algebra extensions, object store."
    ),
    author="Reproduction Authors",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
)
