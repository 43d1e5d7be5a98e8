"""Setup shim for environments without the `wheel` package.

The canonical metadata lives in pyproject.toml; this file only enables
legacy editable installs (`pip install -e .`) on offline machines where
PEP 660 wheel building is unavailable.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="19.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
