"""The compile-and-run service: an HTTP front door for the compiler.

One process serves compilation and execution jobs over plain HTTP
(stdlib asyncio only — see :mod:`repro.service.app` for the wire
protocol and routes).  Identical in-flight compilations coalesce onto
one future (:mod:`repro.service.coalescer`), results persist in the
tiered plan cache, execution runs on a bounded worker pool with
admission control (:mod:`repro.service.pool`), and every job lands in
the run ledger.  Responses embed the repo's existing versioned
documents — plan, metrics, profile — unchanged.

README section "Compile-and-run service" has curl examples; DESIGN.md
records the invariants.
"""

from repro.service.app import ReproService, serve  # noqa: F401
from repro.service.coalescer import Coalescer  # noqa: F401
from repro.service.handlers import Response, ServiceState  # noqa: F401
from repro.service.pool import PoolBusy, WorkerPool  # noqa: F401
from repro.service.schemas import (  # noqa: F401
    ARRAY_MODES, JobError, SERVICE_SCHEMA, parse_compile_job,
    parse_run_job,
)
