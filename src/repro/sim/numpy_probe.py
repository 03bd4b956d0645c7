"""The one numpy probe: imported on first use, cached, never fatal.

numpy is the substrate of the one vector path, the frontier kernel in
:mod:`repro.sim.kernel`; every other path, the traced tier included, is
pure Python.  Importing numpy costs a fresh process about as much as
importing the rest of :mod:`repro`, so nothing imports it at module
level: the kernel calls :func:`load_numpy` right before it needs an
array, and a process that never runs it never loads numpy.

A missing or broken numpy means "no vector path", never a crash:
:func:`load_numpy` returns ``None`` and the kernel's callers fall back
to their scalar paths.
"""

from __future__ import annotations

import importlib.util

__all__ = ["load_numpy", "numpy_importable"]

_UNPROBED = object()
_numpy = _UNPROBED


def load_numpy():
    """The numpy module, imported on the first call; ``None`` when it is
    missing or fails to import.  The answer is cached for the process."""
    global _numpy
    if _numpy is _UNPROBED:
        try:
            import numpy
        # repro-lint: disable=RPR002 -- import probe: numpy breakage must mean "no vector path", never a crash; load_numpy() returns None and kernel_available() reports it
        except Exception:
            numpy = None
        _numpy = numpy
    return _numpy


def numpy_importable() -> bool:
    """Would :func:`load_numpy` return a module?  Answered from the
    cached probe when this process already ran it, else by a spec lookup
    that does not import numpy."""
    if _numpy is not _UNPROBED:
        return _numpy is not None
    try:
        return importlib.util.find_spec("numpy") is not None
    except (ImportError, ValueError):
        return False
