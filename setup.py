"""Thin setup.py shim.

The project is fully described by ``pyproject.toml``; this file exists only
for the legacy editable path (``python setup.py develop``), which works on
environments without the ``wheel`` package that pip's editable installs
need.
"""

from setuptools import setup

setup()
