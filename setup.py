"""Packaging for the RCV reproduction.

The package is stdlib-only, all of it: every protocol, engine,
campaign, CLI and summary path runs on a bare Python >= 3.10, and no
module under ``src/`` imports a third-party package
(``tests/test_import_graph.py`` guards the start-up module set).
Means, ddof=1 standard deviations and Student-t confidence intervals
come from ``repro.metrics.summary`` (``statistics`` plus a small
pure-Python t-quantile), so a table prints the same ``±`` on every
host.  The one extra is the toolchain CI installs:

* ``repro[test]`` — the tier-1 + benchmark toolchain.
"""

from pathlib import Path

from setuptools import find_packages, setup

setup(
    name="repro-rcv",
    version="0.6.0",
    description=(
        "Reproduction of Cao, Zhou, Chen & Wu (IPDPS 2004): an "
        "efficient distributed mutual exclusion algorithm based on "
        "relative consensus voting — deterministic simulator, "
        "protocol, experiments, and scale campaigns"
    ),
    long_description=Path(__file__).with_name("PAPER.md").read_text(
        encoding="utf-8"
    ),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
            "repro-verify=repro.verify.__main__:main",
        ],
    },
)
