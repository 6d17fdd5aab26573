"""Setup shim.

The environment used for the reproduction has an older setuptools without
the ``wheel`` package, so editable installs go through the legacy
``setup.py develop`` path.  All project metadata lives in ``pyproject.toml``;
this file only exists to make ``pip install -e .`` work offline.
"""

from setuptools import setup

setup()
