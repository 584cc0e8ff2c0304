"""Numerical toolkit for biharmonic integral C-parallel submanifolds of Sasakian spheres.

Every submodule but ``cli`` is registered lazily (``importlib.util.LazyLoader``):
it is in ``sys.modules`` and an attribute of this package as soon as the
package is imported, and its code runs on the first attribute read.  So
``classify``, which reads only ``output``, ``classifier`` and
``shape_algebra``, loads neither numpy nor the jet and verify stack.  ``cli``
loads eagerly, since ``python -m sasakian.cli`` runs it as ``__main__``.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazily(name: str) -> None:
    # the lazy-import recipe of the importlib documentation
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    # ``from . import name`` finds the attribute and reads nothing of the module
    globals()[name] = module


for _name in ("ambient", "catalog", "classifier", "frenet", "immersion", "jets", "output", "report", "shape_algebra"):
    _register_lazily(_name)
del _name
