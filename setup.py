"""Setuptools shim for environments without the ``wheel`` package.

The canonical project metadata lives in ``pyproject.toml``; this file exists
only so that the legacy editable install (``setup.py develop``) works on
offline machines that lack the ``wheel`` build dependency required by PEP 660
editable installs::

    PIP_USE_PEP517=0 pip install --no-build-isolation -e .

``pip install --no-build-isolation --no-use-pep517 -e .`` takes the same
path, but recent pip refuses that flag unless ``wheel`` is importable.
"""

from setuptools import setup

setup()
