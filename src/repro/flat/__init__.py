"""Levelized flat-array netlist kernels.

The dict-based :class:`~repro.netlist.netlist.Netlist` is the editing
substrate; this package compiles it into int-indexed numpy arrays (one
:class:`~repro.flat.view.FlatView` per structure version) and runs the
two numerically hottest GDO loops as vectorized matrix passes:

* :mod:`repro.flat.batchsim` — batched bit-parallel simulation and
  fault observability (the BPFS stage), all fault sites of a pass
  against all vectors at once;
* :mod:`repro.flat.flatsta` — the full arrival/required/slack sweep of
  static timing analysis over the level structure.

They are GDO's only engine.  Every kernel is bitwise-identical to its
dict-engine counterpart (``Sta``, ``BitSimulator.simulate``,
``ObservabilityEngine``), the reference that
``tests/flat/test_differential.py`` compares them against.  Netlists the
array form cannot express raise :class:`~repro.flat.view.FlatViewError`.
"""

from .view import FlatView, FlatViewError, FUNC_CODES
from .batchsim import FlatObservabilityEngine, batch_observability, flat_simulate
from .flatsta import FlatTiming

__all__ = [
    "FlatView",
    "FlatViewError",
    "FUNC_CODES",
    "FlatObservabilityEngine",
    "batch_observability",
    "flat_simulate",
    "FlatTiming",
]
