"""Intermediate representation for the HPF stencil compiler.

The IR models whole programs as structured statement lists over typed,
BLOCK-distributed arrays.  Submodules:

``types``
    Scalar/array types and HPF distribution specifications.
``linexpr``
    Linear integer expressions over named symbols (section bounds).
``rsd``
    Regular section descriptors used by communication unioning.
``nodes``
    Expression and statement node classes.
``symbols``
    Symbol tables.
``program``
    The :class:`~repro.ir.program.Program` container and the one
    structured walk of the statement IR (``map_runs``, ``walk_flow``,
    ``Flow``).
``printer``
    A Fortran-flavoured pretty printer used for golden tests and debugging.
``dependence``
    Statement-level data dependence graph construction.  (The offset
    pass uses a structured-IR dataflow — intersection at joins,
    conservative back edges — rather than explicit SSA; it provides the
    same reached-uses information the paper's SSA formulation needs.)
"""

from repro.ir.types import (  # noqa: F401
    ScalarKind, ArrayType, DistKind, Distribution, dtype_of,
)
from repro.ir.linexpr import LinExpr  # noqa: F401
from repro.ir.rsd import RSD, RSDim  # noqa: F401
