"""Setup shim.

The canonical metadata lives in pyproject.toml; this file exists so the
package can be installed in environments without the `wheel` package
(offline legacy path: `python setup.py develop`).  The package is pure
Python: there is nothing to compile.
"""

from setuptools import setup

setup()
