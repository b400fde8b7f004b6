"""Packaging metadata for ``repro``.

The metadata lives here; the repository has no ``pyproject.toml``.  The
package is ``repro`` under ``src/``, its version is ``repro.__version__``
(read from the source, not imported), and it has no runtime dependencies.

``pip install -e .`` installs it in editable mode; pip builds an editable
wheel, so it needs the ``wheel`` package (fetched on demand with network
access).  Offline and without ``wheel``, ``python setup.py develop`` does the
same with setuptools alone.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(encoding="utf-8"), re.M)

setup(
    name="repro",
    version=_VERSION.group(1),
    description="Energy-efficient ID-based group key agreement for wireless networks (Tan & Teo, IPPS 2006)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
)
