from setuptools import setup

# All metadata lives in pyproject.toml; this shim keeps legacy
# `pip install -e .` flows on older pips working.
setup()
