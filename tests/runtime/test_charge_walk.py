"""The charge walks of ``overlap_shift`` / ``full_cshift`` /
``full_eoshift`` are properties of the program and the BLOCK layout —
not of how an array is stored.

(a) A *null placement* — an array type that holds no data and whose
``fill_overlap``/``assign_interior`` do nothing — driven through the
three shift routines must produce the identical cost report, tagged
message log and peak memory as :class:`DArray` (and :class:`VArray`):
proof that the walks never read array data.  Its replay leg: the
schedules one walk records on a :class:`DArray` machine, applied on
:class:`VArray` and null-placement machines, leave the same again.

(b) A source scan pins *where* charging lives: the recorder's entry
points and the replay defined under ``machine/`` are called from
``runtime/{executor,overlap,cshift,darray}.py`` only, and the
halo-limit message is spelled once.
"""

import re
from dataclasses import dataclass
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
from repro.runtime.vectorized import VArray


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

    def free(self, machine):
        machine.memory.free_all(self.name)

    @property
    def rank(self):
        return len(self.layout.shape)

    def fill_overlap(self, shift):
        pass

    def assign_interior(self, other, shift, d):
        pass


def observed(machine):
    """Everything a charge walk leaves behind on a machine."""
    return (machine.report, list(machine.network.log),
            [machine.memory.peak(pe) for pe in range(machine.npes)])


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
    for array_type in (DArray, VArray, NullArray):
        m = Machine(grid=grid, keep_message_log=True)
        lay = Layout((n, n), dist, m.topology)
        u = array_type.create(m, "U", lay, dtype, ((2, 2), (2, 2)))
        v = array_type.create(m, "V", lay, dtype)
        if array_type is not NullArray:
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
        seen[array_type] = observed(m)
        if array_type is not NullArray:
            seen[array_type] += (u.gather().tobytes(),
                                 v.gather().tobytes())
    assert seen[NullArray] == seen[DArray][:3]
    assert seen[VArray][:3] == seen[DArray][:3]
    # the two real placements moved the same interiors
    assert seen[VArray][3:] == seen[DArray][3:]


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(LAYOUTS), n=st.sampled_from([8, 12, 14]),
       dtype=st.sampled_from([np.float32, np.float64]),
       ops=st.lists(op, min_size=1, max_size=4), seed=st.integers(0, 5))
def test_a_schedule_replays_identically_on_every_placement(
        layout, n, dtype, ops, seed):
    """Walked once on :class:`DArray` arrays, applied on all three."""
    grid, dist = layout
    schedules = None
    seen = {}
    for array_type in (DArray, VArray, NullArray):
        m = Machine(grid=grid, keep_message_log=True)
        lay = Layout((n, n), dist, m.topology)
        u = array_type.create(m, "U", lay, dtype, ((2, 2), (2, 2)))
        v = array_type.create(m, "V", lay, dtype)
        if array_type is not NullArray:
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
        seen[array_type] = observed(m)
        if array_type is not NullArray:
            seen[array_type] += (u.gather().tobytes(),
                                 v.gather().tobytes())
    assert seen[NullArray] == seen[DArray][:3]
    assert seen[VArray] == seen[DArray]


SRC = Path(repro.__file__).parent
CHARGE_CALL = re.compile(
    r"\bcharge_copy\(|\bcharge_loop\(|\brecord_batch\(|"
    r"\bnetwork\.record\(|\ballreduce\(|\ballocate_all\(|\breplay\(")
CHARGING_MODULES = {f"runtime/{name}.py" for name in
                    ("executor", "overlap", "cshift", "darray")}


def test_charges_are_made_by_the_skeleton_only():
    """One charge walk per op: a placement or a backend that charged on
    its own would be a second copy of the contract.  (``machine/``
    defines the entry points — the recorder and the one replay — and is
    not a caller; schedules are those walks' recordings.)"""
    callers = {
        path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
        if path.parent.name != "machine"
        and CHARGE_CALL.search(path.read_text())}
    assert callers == CHARGING_MODULES
    replays = {path.relative_to(SRC).as_posix()
               for path in SRC.rglob("*.py")
               if re.search(r"\bdef replay\(", path.read_text())}
    assert replays == {"machine/network.py"}


def test_halo_limit_is_checked_in_one_place():
    hits = {path.relative_to(SRC).as_posix(): n
            for path in SRC.rglob("*.py")
            if (n := path.read_text().count(
                "exceeds the minimum local extent"))}
    assert hits == {"runtime/darray.py": 1}
