"""The process's numpy module, executed when one of its attributes is first read.

Every module takes ``np`` from here.  If numpy is already imported, ``np`` is
that module.  Otherwise a pending module is registered as
``sys.modules["numpy"]``: ``timelens design`` and scenario parsing never read
an attribute of it, so they skip numpy's import, about half of a design
process's time.  The first attribute read executes numpy into that same
module object, exactly once.  From then on ``np`` is the plain module,
``np is sys.modules["numpy"]``, and an attribute read costs nothing extra.
``import numpy`` and ``import numpy.fft`` elsewhere read the module's
``__spec__`` or ``__path__``, so they execute it too.

numpy executes holding the import system's own lock for ``numpy``, and a
thread that reads an attribute meanwhile waits on that lock for the whole
module.  (The stdlib ``importlib.util.LazyLoader`` recipe hands such a thread
the half-executed module on Python 3.11.)  A lock of this module would do for
threads that only read attributes, but a thread importing a numpy submodule
reads ``__path__`` holding that submodule's lock, which the executing thread
may come to need.  The import system's lock detects that cycle: one of the
two threads gets the partial module or the import system's deadlock error,
as when one thread runs ``import numpy`` and another ``import numpy.linalg``,
and neither hangs.
"""

from __future__ import annotations

import importlib.util
import sys
import types
from importlib import _bootstrap

#: True while a thread executes numpy, which it does holding numpy's lock.
_executing = False


class _PendingModule(types.ModuleType):
    def __getattribute__(self, name: str):
        lock = _bootstrap._get_module_lock("numpy")
        try:
            lock.acquire()
        except _bootstrap._DeadlockError:
            pass  # the wait would deadlock: read the partial module, as an import does
        else:
            try:
                # the executing thread holds the lock, and reads numpy's
                # attributes as numpy defines them
                if type(self) is _PendingModule and not _executing:
                    _execute(self)
            finally:
                lock.release()
        return types.ModuleType.__getattribute__(self, name)


def _execute(module: types.ModuleType) -> None:
    global _executing
    _executing = True
    try:
        spec = types.ModuleType.__getattribute__(module, "__spec__")
        spec.loader.exec_module(module)
    finally:
        _executing = False
    module.__class__ = types.ModuleType


def _pending() -> types.ModuleType:
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        import numpy  # noqa: F401  (raises the ModuleNotFoundError)
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _PendingModule
    sys.modules["numpy"] = module
    return module


np = sys.modules["numpy"] if "numpy" in sys.modules else _pending()
