"""The charge walks of ``overlap_shift`` / ``full_cshift`` /
``full_eoshift`` are properties of the program and the BLOCK layout —
not of how an array is stored.

(a) A *null placement* — an array type that holds no data and whose
``fill_overlap``/``assign_interior`` do nothing — driven through the
three shift routines must produce the identical cost report, tagged
message log and peak memory as a :class:`DArray` of either storage (a
cell per PE, or the slab): proof that the walks never read array data.
Its replay leg: the schedules one walk records on a per-PE machine,
applied on slab and null-placement machines, leave the same again; and
its segment leg: their recordings merged into one (``Charges.merged``)
and replayed ``trips`` times at once on a null placement leave what the
members applied trip by trip leave.

(b) A source scan pins *where* charging lives: the recorder's entry
points and the replay defined under ``machine/`` are called from
``runtime/{executor,overlap,cshift,darray}.py`` only, no module outside
``machine/`` writes a cost-report row, and the halo-limit message is
spelled once.
"""

import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.ir.rsd import RSD, RSDim
from repro.ir.types import DistKind, Distribution
from repro.machine import Machine
from repro.machine.network import Charges
from repro.runtime.cshift import FullShift, full_cshift, full_eoshift
from repro.runtime.darray import DArray, allocate_distributed
from repro.runtime.distribution import Layout
from repro.runtime.overlap import OverlapShift, overlap_shift


@dataclass
class NullArray:
    """A placement with no storage: only what the walks may look at."""

    name: str
    layout: Layout
    dtype: np.dtype
    halo: tuple

    @staticmethod
    def create(machine, name, layout, dtype, halo=None):
        dtype, halo, _ = allocate_distributed(machine, name, layout,
                                              dtype, halo)
        return NullArray(name, layout, dtype, halo)

    def like(self, machine, name, halo):
        return NullArray.create(machine, name, self.layout, self.dtype, halo)

    def free(self, machine):
        machine.memory.free_all(self.name)

    @property
    def rank(self):
        return len(self.layout.shape)

    def fill_overlap(self, shift):
        pass

    def assign_interior(self, other, shift, d):
        pass


#: the placements: a cell per PE, the slab, no storage
PLACEMENTS = {"perpe": DArray.create,
              "slab": partial(DArray.create, slab=True),
              "null": NullArray.create}


def observed(machine):
    """Everything a charge walk leaves behind on a machine; the per-PE
    rows also as bytes, so a -0.0 or a NaN payload counts."""
    return (machine.report, list(machine.network.log),
            [machine.memory.peak(pe) for pe in range(machine.npes)],
            machine.report.rows.tobytes())


LAYOUTS = [
    # grid, distribution
    ((2, 2), Distribution.block(2)),
    ((1, 2), Distribution.block(2)),   # 1-wide dim: self-sends are copies
    ((4, 2), Distribution.block(2)),
    ((3, 2), Distribution.block(2)),   # uneven blocks
    ((4,), Distribution((DistKind.BLOCK, DistKind.COLLAPSED))),
    ((3,), Distribution((DistKind.COLLAPSED, DistKind.BLOCK))),
]

op = st.tuples(
    st.sampled_from(["overlap", "cshift", "eoshift"]),
    st.sampled_from([-2, -1, 1, 2]),           # shift
    st.sampled_from([1, 2]),                   # dim
    st.tuples(st.integers(0, 2), st.integers(0, 2)),   # RSD extension
    st.sampled_from([None, 2.5]))              # overlap_shift boundary


def _rsd(dim, lo, hi):
    return RSD(tuple(None if k == dim - 1 else RSDim(lo, hi)
                     for k in range(2)))


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), n=st.sampled_from([8, 12, 14]),
       dtype=st.sampled_from([np.float32, np.float64]),
       ops=st.lists(op, min_size=1, max_size=4), seed=st.integers(0, 5))
def test_null_placement_charges_identically(layout, n, dtype, ops, seed):
    grid, dist = layout
    seen = {}
    for placement, create in PLACEMENTS.items():
        m = Machine(grid=grid, keep_message_log=True)
        lay = Layout((n, n), dist, m.topology)
        u = create(m, "U", lay, dtype, ((2, 2), (2, 2)))
        v = create(m, "V", lay, dtype)
        if placement != "null":
            u.scatter(np.random.default_rng(seed)
                      .standard_normal((n, n)).astype(dtype))
        for kind, shift, dim, (lo, hi), boundary in ops:
            if kind == "overlap":
                overlap_shift(m, u, shift, dim, rsd=_rsd(dim, lo, hi),
                              boundary=boundary)
            elif kind == "cshift":
                full_cshift(m, v, u, shift, dim)
            else:
                full_eoshift(m, v, u, shift, dim, boundary=1.5)
        seen[placement] = observed(m)
        if placement != "null":
            seen[placement] += (u.gather().tobytes(), v.gather().tobytes())
    assert seen["null"] == seen["perpe"][:4]
    assert seen["slab"][:4] == seen["perpe"][:4]
    # the two storages moved the same interiors
    assert seen["slab"][4:] == seen["perpe"][4:]


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), n=st.sampled_from([8, 12, 14]),
       dtype=st.sampled_from([np.float32, np.float64]),
       ops=st.lists(op, min_size=1, max_size=4), seed=st.integers(0, 5))
def test_a_schedule_replays_identically_on_every_placement(
        layout, n, dtype, ops, seed):
    """Walked once on per-PE arrays, applied on all three placements."""
    grid, dist = layout
    schedules = None
    seen = {}
    for placement, create in PLACEMENTS.items():
        m = Machine(grid=grid, keep_message_log=True)
        lay = Layout((n, n), dist, m.topology)
        u = create(m, "U", lay, dtype, ((2, 2), (2, 2)))
        v = create(m, "V", lay, dtype)
        if placement != "null":
            u.scatter(np.random.default_rng(seed)
                      .standard_normal((n, n)).astype(dtype))
        if schedules is None:
            schedules = [
                OverlapShift(u.name, u.layout, u.dtype, u.halo, shift, dim,
                             Charges(m.cost_model), rsd=_rsd(dim, lo, hi),
                             boundary=boundary)
                if kind == "overlap" else
                FullShift(v, u, shift, dim,
                          None if kind == "cshift" else 1.5,
                          Charges(m.cost_model))
                for kind, shift, dim, (lo, hi), boundary in ops]
        for sched in schedules:
            if isinstance(sched, OverlapShift):
                sched.apply(m, u)
            else:
                sched.apply(m, v, u)
        seen[placement] = observed(m)
        if placement != "null":
            seen[placement] += (u.gather().tobytes(), v.gather().tobytes())
    assert seen["null"] == seen["perpe"][:4]
    assert seen["slab"] == seen["perpe"]


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), n=st.sampled_from([8, 12, 14]),
       dtype=st.sampled_from([np.float32, np.float64]),
       ops=st.lists(op.filter(lambda o: o[0] == "overlap"), min_size=1,
                    max_size=4), trips=st.integers(1, 5))
def test_a_merged_recording_replays_its_members_trip_by_trip(
        layout, n, dtype, ops, trips):
    """A native segment's charges: its shifts' recordings (a full
    shift's scratch allocation never sits in a segment) merged into one
    and replayed ``trips`` times in one call, on a null placement, leave
    what the members applied one by one, trip after trip, leave on
    :class:`DArray` — rows by bytes, counters, tagged log, peaks."""
    grid, dist = layout
    seen = []
    for create in (DArray.create, NullArray.create):
        m = Machine(grid=grid, keep_message_log=True)
        u = create(m, "U", Layout((n, n), dist, m.topology), dtype,
                   ((2, 2), (2, 2)))
        shifts = [OverlapShift(u.name, u.layout, u.dtype, u.halo, shift, dim,
                               Charges(m.cost_model), rsd=_rsd(dim, lo, hi),
                               boundary=boundary)
                  for _, shift, dim, (lo, hi), boundary in ops]
        if create is DArray.create:
            for _ in range(trips):
                for shift in shifts:
                    shift.apply(m, u)
        else:
            m.network.replay(Charges.merged(
                m.cost_model, [s.charges for s in shifts]), trips)
        seen.append(observed(m))
    assert seen[1] == seen[0]


SRC = Path(repro.__file__).parent
CHARGE_CALL = re.compile(
    r"\bcharge_copy\(|\bcharge_loop\(|\brecord_batch\(|\bcredit\(|"
    r"\bnetwork\.record\(|\ballreduce\(|\ballocate_all\(|\breplay\(")
CHARGING_MODULES = {f"runtime/{name}.py" for name in
                    ("executor", "overlap", "cshift", "darray")}
#: a write into the cost report's per-PE row array: an assignment to
#: ``.rows`` or an element of it, or a ufunc's ``out=`` naming it
ROW_WRITE = re.compile(
    r"\.rows\b(?:\[[^\]]*\])*\s*[-+*/]?=(?!=)|\bout=[\w.]*\.rows\b")


def test_charges_are_made_by_the_skeleton_only():
    """One charge walk per op: a placement or a backend that charged on
    its own would be a second copy of the contract.  (``machine/``
    defines the entry points — the recorder and the one replay — and is
    not a caller; schedules are those walks' recordings.)  And replay is
    the only way into the report: nothing outside ``machine/`` writes a
    report row."""
    sources = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in SRC.rglob("*.py")}
    outside = {name: text for name, text in sources.items()
               if not name.startswith("machine/")}
    callers = {name for name, text in outside.items()
               if CHARGE_CALL.search(text)}
    assert callers == CHARGING_MODULES
    replays = {name for name, text in sources.items()
               if re.search(r"\bdef replay\(", text)}
    assert replays == {"machine/network.py"}
    for write in ("report.rows[2, pe] -= t", "report.rows += layer",
                  "machine.report.rows = rows",
                  "np.add(a, b, out=machine.report.rows)"):
        assert ROW_WRITE.search(write), write
    assert not ROW_WRITE.search("result.rows.append(row)")
    assert not ROW_WRITE.search("report.rows == other.rows")
    writers = {name for name, text in outside.items()
               if ROW_WRITE.search(text)}
    assert writers == set()


def test_halo_limit_is_checked_in_one_place():
    hits = {path.relative_to(SRC).as_posix(): n
            for path in SRC.rglob("*.py")
            if (n := path.read_text().count(
                "exceeds the minimum local extent"))}
    assert hits == {"runtime/darray.py": 1}
