"""Packaging via classic setup.py.

Deliberately *not* PEP 517/pyproject-based: this repository must install
with ``pip install -e .`` on fully offline machines, where pip's build
isolation cannot download setuptools/wheel.  Without a pyproject.toml pip
takes the legacy ``setup.py develop`` path, which has no such requirement.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Containing the Cambrian Explosion in QUIC "
        "Congestion Control' (IMC 2023): a conformance-testing framework "
        "for QUIC congestion-control implementations."
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    author="repro contributors",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.21"],
    # SciPy only as the tests' reference for the in-tree assignment solver.
    extras_require={"dev": ["pytest", "pytest-benchmark", "hypothesis", "scipy>=1.7"]},
    entry_points={"console_scripts": ["quicbench = repro.cli:main"]},
    keywords="quic congestion-control measurement conformance simulation",
)
