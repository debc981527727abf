"""Legacy setup shim.

The offline environment lacks the ``wheel`` package, so PEP 517 editable
installs fail; this shim lets ``pip install -e . --no-use-pep517
--no-build-isolation`` fall back to ``setup.py develop``.  It carries the
package's minimal metadata: name, version (read from
``src/repro/_version.py``, the single source of truth) and the ``src``
layout.
"""

import os
import re

from setuptools import find_packages, setup

_HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(_HERE, "src", "repro", "_version.py")) as fh:
    _VERSION = re.search(r'__version__ = "([^"]+)"', fh.read()).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
