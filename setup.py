"""Setuptools entry point.

A classic ``setup.py`` (rather than PEP 621 metadata in pyproject.toml) is
used so that ``pip install -e .`` works on environments whose setuptools
predates bundled wheel support for PEP 660 editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Smart: a MapReduce-like framework for in-situ scientific analytics "
        "(Python reproduction)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    extras_require={"dev": ["pytest", "hypothesis"]},
)
