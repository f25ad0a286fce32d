"""Setup shim: the metadata (name, version, ``src`` layout, the numpy
dependency, the ``repro`` script) is in ``pyproject.toml``.

Kept so that ``pip install -e .`` works in offline environments whose
setuptools/pip lack the ``wheel`` package needed for PEP 517 editable
installs (pip falls back to ``setup.py develop`` with
``--no-use-pep517``).
"""

from setuptools import setup

setup()
