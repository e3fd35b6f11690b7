"""Import a module on first attribute access.

The single-instance designs are scalar math, so a CLI call on them need not
pay numpy's import; the array code loads it the first time it touches it.
"""
from __future__ import annotations

import importlib.util
import sys


class _SpecFinder:
    """A meta path finder that hands out one prepared spec."""

    def __init__(self, spec):
        self.spec = spec

    def find_spec(self, name, path=None, target=None):
        return self.spec if name == self.spec.name else None


def lazy_module(name: str):
    """The module `name`, executed on its first attribute access; the loaded
    module itself if it is already in sys.modules. Once executed, the lazy
    object is the real module, so later accesses cost nothing extra. A
    missing module raises ModuleNotFoundError here, not at first use.

    The lazy module is bound by the import statement's own machinery, so
    `python -X importtime` and import hooks see the import (at the cost of
    the lazy binding) as they would see an eager one."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    finder = _SpecFinder(spec)
    sys.meta_path.insert(0, finder)
    try:
        __import__(name)
    finally:
        sys.meta_path.remove(finder)
    return sys.modules[name]
