"""Runtime for compiled stencil programs on the simulated machine.

* :mod:`repro.runtime.distribution` — HPF BLOCK layouts and index math.
* :mod:`repro.runtime.darray` — the one distributed array with overlap
  areas, its arena a cell per PE or the global slab; the one allocation
  charge.
* :mod:`repro.runtime.overlap` — ``OVERLAP_SHIFT`` (interprocessor
  component only, with RSD support) and its charge walk.
* :mod:`repro.runtime.cshift` — full ``CSHIFT``/``EOSHIFT`` (both
  components), as a naive backend would call.
* :mod:`repro.runtime.executor` — runs compiled plans: the one
  execution skeleton, and the ``perpe`` backend as is.
* :mod:`repro.runtime.nest_tape` — the strip-mined nest evaluator; a
  plan's tapes and op schedules are built once and kept with it.
* :mod:`repro.runtime.native` — its native form: a nest as one
  ``cc``-compiled fused C loop, when provably bitwise.
* :mod:`repro.runtime.backends` — the three-row backend table.
* :mod:`repro.runtime.vectorized` — the skeleton over the slab storage,
  nests evaluated over the whole iteration space;
  :mod:`repro.runtime.parallel` — that evaluator cut into row stripes
  on one persistent thread pool (the ``parallel`` backend).
* :mod:`repro.runtime.reference` — serial NumPy semantics of IR programs.
"""

from repro.runtime.distribution import Layout, BlockDim  # noqa: F401
from repro.runtime.darray import DArray  # noqa: F401
from repro.runtime.overlap import overlap_shift  # noqa: F401
from repro.runtime.cshift import full_cshift, full_eoshift  # noqa: F401
