"""Setuptools packaging for the ``repro`` package (the D3L reproduction).

All metadata lives here; the package sources are under ``src/``.  Install
with ``pip install .`` (or ``pip install -e .`` for development), or run in
place with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description='A reproduction of "Dataset Discovery in Data Lakes" (D3L, ICDE 2020)',
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy", "networkx"],
)
