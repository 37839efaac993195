"""Exact arithmetic toolkit for a one-parameter family of quartic surfaces:
isotrivial elliptic fibrations, degree-four cyclic covers, even lattices,
and the unit-disc period groups that act on them.

Importing the package executes none of its library modules.  Each one is
registered in ``sys.modules`` as a lazy module (``importlib.util.LazyLoader``)
and bound as a package attribute, so ``from k3quartic import lattices`` is
free and the module runs on its first attribute access.  Every name has one
import path, its own module's: ``from k3quartic.lattices import tn_search``
loads only ``lattices`` and its imports.  ``k3quartic.cli`` is not
registered: ``python -m k3quartic.cli`` runs it as ``__main__``, and runpy
warns when the module is already in ``sys.modules``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_MODULES = ("fields", "polynomials", "zx", "multipoly", "quartic", "fibration",
            "curves", "periods", "covers", "lattices", "moduli", "report", "serialize")


def _register_lazily(short):
    """Put k3quartic.<short> into sys.modules unexecuted: its code runs on the
    first attribute access (the recipe of the importlib documentation)."""
    spec = importlib.util.find_spec("%s.%s" % (__name__, short))
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _short in _MODULES:
    globals()[_short] = _register_lazily(_short)
del _short
