"""Native nest kernels (:mod:`repro.runtime.native`): a ``cc``-compiled
loop must be the ufunc tape bit for bit, every reason to stay on the
tape must be taken and counted, the kernel directory must survive
damage and races, and a parallel run's stripes must all call the one
kernel its plan was given before the first nest ran.

The size constant keeps test-sized plans off the compiler, so the
property test builds kernels for its tapes directly
(:func:`repro.runtime.native.build`); the end-to-end cases run registry
kernels at N=258 (an interior of 256 x 256), just above the constant.
"""

import ctypes
import hashlib
import multiprocessing as mp
import re
import shutil
import stat
import struct
import warnings
from contextlib import contextmanager
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import testing
from repro.ir.nodes import (
    BinOp, Compare, Const, Intrinsic, OffsetRef, ScalarRef, UnaryOp,
)
from repro.ir.rsd import RSD, RSDim
from repro.ir.types import DistKind, Distribution
from repro.kernels import KERNELS, compile_kernel
from repro.machine import Machine
from repro.machine.network import Charges
from repro.obs import MetricsRegistry, Tracer, use_registry
from repro.plan import LoopNestOp
from repro.runtime import executor, native, nest_tape
from repro.runtime.darray import DArray
from repro.runtime.distribution import Layout
from repro.runtime.overlap import OverlapShift
from repro.runtime.nest_tape import NestTape, plan_tapes, prepare
from repro.testing import GeneratedProgram, backend_equivalence_check

CC = shutil.which("cc")
pytestmark = pytest.mark.skipif(CC is None, reason="no cc on the path")

READ, WRITTEN = ["A", "B"], ["C", "D"]
SCALARS = {"S": 1.25, "T": -0.5}


@pytest.fixture(autouse=True)
def working_compiler(monkeypatch):
    """A compiler one test broke is not broken for the next."""
    monkeypatch.setattr(native, "_BROKEN", set())


def kernel_counts(registry) -> dict:
    """``(status, reason | None) -> count`` of the kernel counter."""
    metric = registry.get("repro_native_kernels_total")
    return {} if metric is None else {
        (dict(labels)["status"], dict(labels).get("reason")): value
        for labels, value in metric.samples()}


def nests_of(plan):
    return [op for op in plan.walk_ops() if isinstance(op, LoopNestOp)]


def digests(result) -> dict:
    return {name: hashlib.sha256(array.tobytes()).hexdigest()
            for name, array in result.arrays.items()}


def run_registry_kernel(name="nine_point", n=258, backend="vectorized",
                        tracer=None, **kw):
    """A fresh compile (kernels stay with their plan) and one run under
    a live registry; returns ``(result, registry, plan)``."""
    compiled = compile_kernel(name, bindings={"N": n})
    rng = np.random.default_rng(3)
    inputs = {a: rng.standard_normal(d.shape).astype(d.dtype)
              for a, d in compiled.plan.arrays.items()
              if a in compiled.plan.entry_arrays}
    scalars = {s: 0.5 + 0.1 * i
               for i, s in enumerate(sorted(compiled.plan.scalar_names))}
    registry = MetricsRegistry()
    with use_registry(registry):
        result = compiled.run(Machine(grid=(2, 2)), inputs=inputs,
                              scalars={**scalars,
                                       **KERNELS[name].default_scalars},
                              backend=backend, tracer=tracer, **kw)
    return result, registry, compiled.plan


# -- (a) property: native == ufunc tape, bit for bit -------------------------

def special_values(dtype):
    tiny = np.finfo(dtype)
    return np.array([np.nan, np.inf, -np.inf, 0.0, -0.0,
                     tiny.smallest_subnormal, -tiny.smallest_subnormal,
                     tiny.tiny, tiny.max, 1.0, -2.5], dtype=dtype)


def make_arrays(shape, dtype, seed):
    """Padded (halo 1) buffers: normals with special values sown in."""
    rng = np.random.default_rng(seed)
    padded = tuple(n + 2 for n in shape)
    arrays = {}
    for name in READ + WRITTEN:
        data = rng.standard_normal(padded).astype(dtype)
        special = rng.random(padded) < 0.3
        data[special] = rng.choice(special_values(dtype), int(special.sum()))
        arrays[name] = data
    return arrays


def bind(tape, arrays, box):
    return [arrays[name][tuple(slice(1 + lo + o, 2 + hi + o)
                               for (lo, hi), o in zip(box, offsets))]
            for name, offsets in tape.refs]


def run_native(tape, arrays, box, scalars, views=bind) -> bool:
    """``tape``'s kernel over ``box`` as a one-row region table, as the
    executor calls it; false when the table or a scalar is refused
    (counted), and the tape must run the box."""
    kernel = tape.kernel
    buffers = [SimpleNamespace(arena=(arrays[name].ctypes.data,
                                      arrays[name].nbytes))
               for name, _ in tape.refs]
    table = kernel.table([views(tape, arrays, box)], buffers)
    values = kernel.arguments(table, scalars)
    if values is None:
        return False
    kernel.run_table(table, buffers, values)
    return True


def expressions(rank):
    zero = (0,) * rank
    leaves = st.one_of(
        st.builds(OffsetRef, st.sampled_from(READ),
                  st.tuples(*[st.integers(-1, 1)] * rank)),
        # an assigned array is read in place only: T = T<0,0> + ...
        st.builds(OffsetRef, st.sampled_from(WRITTEN), st.just(zero)),
        st.sampled_from([ScalarRef("S"), ScalarRef("T")]),
        st.builds(Const, st.sampled_from(
            [2, 0.5, -3.0, 1e39, np.float32(0.1), np.float64(0.1)])))
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(BinOp, st.sampled_from("+-*/"), children, children),
        st.builds(UnaryOp, st.just("-"), children)), max_leaves=8)


@st.composite
def fused_nests(draw):
    rank = draw(st.integers(1, 3))
    statements = draw(st.lists(
        st.tuples(st.sampled_from(WRITTEN), expressions(rank), st.none()),
        min_size=1, max_size=4))
    boxes = []
    for _ in range(2):      # a slab, then a block of other strides
        shape = tuple(draw(st.integers(1, 6)) for _ in range(rank))
        box = []
        for n in shape:
            lo = draw(st.integers(0, n - 1))
            box.append((lo, draw(st.integers(lo, n - 1))))
        boxes.append((shape, box))
    return (rank, statements, boxes,
            draw(st.sampled_from([np.float32, np.float64])),
            draw(st.integers(0, 2**16)))


def ref(name, *offsets):
    return OffsetRef(name, offsets)


#: a static box function (its ISA clones' macro, the nest body, restrict
#: pointers as parameters), then the one entry point: the box per
#: region-table row
GRAMMAR = re.compile(r"""
    vec_clones\ static\ void\ (?P<k>k\d+)_box\(
        (?:(?:const\ )?(?:float|double)\ \*restrict\ a\d+,\ )+
        (?:long\ long\ [nso][\d_]+(?:,\ )?)+
        (?:,\ double\ d\d+)*\)\n
    \{\n
    (?:\ +const\ (?:float|double)\ c\d+\ =\ \((?:float|double)\)d\d+;\n)*
    (?:\ +for\ \(long\ long\ (?P<i>i\d)\ =\ 0;\ (?P=i)\ <\ n\d;\ (?P=i)\+\+\)\ \{\n
       (?:\ +const\ long\ long\ b\d+_\d\ =\ (?:b\d+_\d\ \+\ )?i\d\ \*\ s\d+_\d;\n)*)+
    (?:\ +(?:const\ (?:float|double)\ t\d+|a\d+\[[bio\d_ +]+\])\ =
       \ (?:neg_(?:float|double)\((?:t\d+|c\d+|a\d+\[[bio\d_ +]+\])\)
          |(?:t\d+|c\d+|a\d+\[[bio\d_ +]+\])
           (?:\ [-+*/]\ (?:t\d+|c\d+|a\d+\[[bio\d_ +]+\]))?);\n)+
    (?:\ *\}\n)+
    void\ (?P=k)\(long\ long\ nreg,\ const\ long\ long\ \*base,
        \ const\ long\ long\ \*off,\ const\ long\ long\ \*ints,
        \ const\ double\ \*d\)\n
    \{\n
    \ \ for\ \(long\ long\ r\ =\ 0;\ r\ <\ nreg;\ r\+\+,
        \ off\ \+=\ \d+,\ ints\ \+=\ \d+\)\n
    \ {4}(?P=k)_box\((?:\((?:const\ )?(?:float|double)\ \*\)
        \(base\[\d+\]\ \+\ off\[\d+\]\),\ )+
        (?:ints\[\d+\](?:,\ )?)+(?:,\ d\[\d+\])*\);\n
    \}\n""", re.VERBOSE)


@settings(max_examples=25, deadline=None)
@given(fused_nests())
def test_native_and_ufunc_tape_agree_bitwise(nest):
    agree_bitwise(nest)


def cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as f:
            return {flag for line in f if line.startswith("flags")
                    for flag in line.split(":", 1)[1].split()}
    except OSError:
        return set()


@pytest.mark.parametrize("isa", ["baseline", "avx2", "avx512f"])
def test_every_clone_agrees_with_the_tape_bitwise(isa, monkeypatch):
    """One ISA per build, the macro every box carries defined on the
    command line (the flags are part of the kernel key, so no two builds
    share a file): the clones differ in vector width only, which changes
    how many points one instruction covers, never the operations within
    one."""
    if isa != "baseline" and isa not in cpu_flags():
        pytest.skip(f"this CPU has no {isa}")
    target = "" if isa == "baseline" else \
        f'__attribute__((target("{isa}")))'
    monkeypatch.setattr(native, "CC_FLAGS",
                        (*native.CC_FLAGS, f"-Dvec_clones={target}"))
    settings(max_examples=25, deadline=None)(given(fused_nests())(
        agree_bitwise))()


def agree_bitwise(nest):
    rank, statements, boxes, dtype, seed = nest
    dtypes = dict.fromkeys(READ + WRITTEN, np.dtype(dtype))
    tape, reference = (NestTape(statements, rank) for _ in range(2))
    native.build([(tape, rank)], dtypes)
    assert tape.kernel is not None and reference.kernel is None
    text, _ = native.emit(tape, rank, dtypes, "k0")
    assert GRAMMAR.fullmatch(text), text
    foreign = any(isinstance(n, Const) and isinstance(n.value, np.floating)
                  and type(n.value) is not dtype
                  for _, rhs, _ in statements for n in rhs.walk())
    scalars = [SCALARS[ref.name] for ref in tape.scalars]
    for shape, box in boxes:
        got, expected = (make_arrays(shape, dtype, seed) for _ in range(2))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                ran = run_native(tape, got, box, scalars)
            except ZeroDivisionError:
                # a zero divisor among Python scalars raises as Python
                # does, before any point is computed, on both paths
                with pytest.raises(ZeroDivisionError):
                    reference.run(bind(reference, expected, box), scalars,
                                  {})
                return
            if not ran:
                tape.run(bind(tape, got, box), scalars, {})
            reference.run(bind(reference, expected, box), scalars, {})
        # only a strong scalar of the other dtype may send a call back
        assert ran or foreign
        for name in got:    # written cells equal, unwritten untouched
            assert_same_bits(got[name], expected[name], name)


def assert_same_bits(got, expected, name=""):
    """Bit for bit, but for the sign and payload of a NaN: an operation
    on two different NaNs answers with whichever the *instruction* takes
    first, and neither C nor NumPy (vector body versus scalar tail)
    fixes the operand order of a commutative operation."""
    nan = np.isnan(got) & np.isnan(expected)
    assert np.where(nan, 0, got).tobytes() == \
        np.where(nan, 0, expected).tobytes(), name


def test_unary_minus_keeps_the_sign_of_a_nan():
    """Found by the property above: ``A + (-C)`` compiled as ``A - C``
    answers a NaN ``C`` with the other sign than ``np.negative`` then
    ``np.add``; unary minus is emitted as the sign-bit flip it is."""
    statements = [("C", BinOp("+", ref("A", 0), UnaryOp("-", ref("C", 0))),
                   None)]
    tape, reference = NestTape(statements, 1), NestTape(statements, 1)
    native.build([(tape, 1)], dict.fromkeys("AC", np.dtype(np.float32)))
    values = np.array([0, np.nan, -np.nan, np.inf, -0.0, 1.5, 0],
                      np.float32)
    got, expected = ({"A": np.ones(7, np.float32), "C": values.copy()}
                     for _ in range(2))
    assert run_native(tape, got, [(0, 4)], [])
    reference.run(bind(reference, expected, [(0, 4)]), [], {})
    assert got["C"].tobytes() == expected["C"].tobytes()
    assert np.signbit(got["C"][1]) and not np.signbit(got["C"][2])


# -- (b) every reason to stay on the tape ------------------------------------

@pytest.mark.parametrize("reason, statements, dtypes", [
    ("mask", [("C", ref("A", 0, 0),
               Compare(">", ref("A", 0, 0), Const(0.0)))], {}),
    ("dtype", [("C", ref("A", 0, 0), None)], {"A": np.float64}),
    ("dtype", [("C", ref("A", 0, 0), None)],
     {"A": np.int32, "C": np.int32}),
    ("offset-read-of-assigned",
     [("C", ref("A", 0, 0), None),
      ("D", BinOp("+", ref("C", 0, 1), ref("A", 0, 0)), None)], {}),
    ("op", [("C", BinOp("**", ref("A", 0, 0), Const(2)), None)], {}),
    ("op", [("C", Intrinsic("SQRT", (ref("A", 0, 0),)), None)], {}),
    ("op", [("C", BinOp("*", ref("A", 0, 0),
                        Compare(">", ref("B", 0, 0), Const(0.0))),
             None)], {}),
], ids=lambda v: v if isinstance(v, str) else "")
def test_ineligible_nests_stay_on_the_tape(reason, statements, dtypes):
    dtypes = {**dict.fromkeys("ABCD", np.float32), **dtypes}
    tape = NestTape(statements, 2)
    registry = MetricsRegistry()
    with use_registry(registry):
        native.build([(tape, 2)], dtypes)
    assert tape.kernel is None
    assert kernel_counts(registry) == {("fallback", reason): 1.0}


def test_call_time_fallbacks_are_counted_and_run_the_tape():
    """Views of another dtype or with a non-unit inner stride refuse the
    region table (:meth:`Kernel.table`), a strong scalar of another
    dtype the call; either is counted once and the tape runs the box."""
    statements = [("C", BinOp("*", ScalarRef("S"), ref("A", 0, 1)), None)]
    tape, reference = NestTape(statements, 2), NestTape(statements, 2)
    native.build([(tape, 2)], dict.fromkeys("AC", np.dtype(np.float32)))
    box = [(0, 3), (0, 3)]

    def run(arrays, scalar, views=bind):
        registry = MetricsRegistry()
        expected = {k: v.copy() for k, v in arrays.items()}
        with use_registry(registry):
            ran = run_native(tape, arrays, box, [scalar], views)
        if not ran:
            tape.run(views(tape, arrays, box), [scalar], {})
        reference.run(views(reference, expected, box), [scalar], {})
        for name in arrays:
            assert arrays[name].tobytes() == expected[name].tobytes()
        return ran, kernel_counts(registry)

    def every_other_column(tape, arrays, box):
        return [v[:, ::2] for v in bind(tape, arrays, box)]

    f32 = make_arrays((4, 4), np.float32, 0)
    assert run(f32, 1.25) == (True, {})
    assert run(f32, np.float32(1.25)) == (True, {})
    assert run(f32, 3) == (True, {})
    for arrays, scalar, views, reason in [
            (f32, np.float64(1.25), bind, "strong-scalar"),
            (f32, 1 << 60, bind, "strong-scalar"),
            (make_arrays((4, 4), np.float64, 0), 1.25, bind, "dtype"),
            (f32, 1.25, every_other_column, "stride")]:
        assert run(arrays, scalar, views) == (
            False, {("fallback", reason): 1.0})


class TestPlanLevelSelection:
    def test_a_plan_above_the_constant_runs_natively(self):
        tracer = Tracer()
        result, registry, plan = run_registry_kernel(tracer=tracer)
        # one kernel obtained and no ``fallback`` sample: no nest, at
        # plan level or per call, ran the tape; the traced run took its
        # one segment
        counts = kernel_counts(registry)
        assert counts.pop(("segment", None)) == 1.0
        assert counts in ({("built", None): 1.0}, {("loaded", None): 1.0})
        span = tracer.find("native-build")
        assert span.attrs["status"] in ("built", "loaded")
        assert tracer.find("execute").children[0] is span

    def test_built_once_per_plan_and_loaded_by_the_next(self, monkeypatch,
                                                        tmp_path):
        """Three runs of one program build each tape once and run cc at
        most once; a second plan of the same nests (as a second process
        would hold) loads the file."""
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        built = []
        init = NestTape.__init__
        monkeypatch.setattr(NestTape, "__init__", lambda self, *a: (
            built.append(self), init(self, *a))[1])
        compiled = compile_kernel("purdue9", bindings={"N": 256})
        runs = native.compiler_runs()
        registry = MetricsRegistry()
        with use_registry(registry):
            for backend in ("vectorized", "perpe", "vectorized"):
                compiled.run(Machine(grid=(2, 2)), backend=backend)
        assert len(built) == len(nests_of(compiled.plan)) == 1
        assert native.compiler_runs() == runs + 1
        # each run, the first included, on either storage, hands its
        # shifts and nest to the driver as one segment
        assert kernel_counts(registry) == {("built", None): 1.0,
                                           ("segment", None): 3.0}
        assert registry.get("repro_native_build_seconds") \
            .value()["count"] == 1
        _, registry, _ = run_registry_kernel("purdue9")
        assert kernel_counts(registry) == {("loaded", None): 1.0,
                                           ("segment", None): 1.0}
        assert native.compiler_runs() == runs + 1
        assert native.kernel_store().stats.hits >= 1

    def test_small_plans_never_look_for_a_compiler(self, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: pytest.fail(
            "a plan under the size constant looked for cc"))
        _, registry, plan = run_registry_kernel(n=128)
        assert kernel_counts(registry) == {("fallback", "small"): 1.0}
        assert plan_tapes(plan).nest(nests_of(plan)[0]).kernel is None

    def test_numpy_1_promotion_stays_on_the_tape(self, monkeypatch):
        from repro.runtime import nest_tape
        monkeypatch.setattr(nest_tape, "_VALUE_BASED_PROMOTION", True)
        plan = compile_kernel("nine_point", bindings={"N": 258}).plan
        registry = MetricsRegistry()
        with use_registry(registry):
            prepare(plan)
        assert kernel_counts(registry) == {("fallback", "numpy1"): 1.0}

    @pytest.mark.parametrize("name", ["nine_point", "purdue9", "jacobi"])
    def test_hidden_compiler_changes_no_result(self, name, monkeypatch):
        native_run, _, _ = run_registry_kernel(name)
        monkeypatch.setattr(shutil, "which", lambda name: None)
        tape_run, registry, _ = run_registry_kernel(name)
        assert all(status == "fallback" and reason == "no-cc"
                   for status, reason in kernel_counts(registry))
        assert digests(native_run) == digests(tape_run)
        assert native_run.scalars == tape_run.scalars

    @pytest.mark.parametrize("script, timeout", [
        ("#!/bin/sh\nexit 1\n", 60.0),
        ("#!/bin/sh\ncase $1 in --version) echo fake;; *) sleep 30;; esac\n",
         0.2),
    ], ids=["exits-nonzero", "times-out"])
    def test_failed_build_warns_once_then_runs_the_tape(
            self, script, timeout, monkeypatch, tmp_path):
        fake = tmp_path / "cc"
        fake.write_text(script)
        fake.chmod(0o755)
        expected, _, _ = run_registry_kernel()
        monkeypatch.setattr(shutil, "which", lambda name: str(fake))
        monkeypatch.setattr(native, "BUILD_TIMEOUT_S", timeout)
        with pytest.warns(RuntimeWarning, match="native nest kernels"):
            result, registry, _ = run_registry_kernel()
        assert kernel_counts(registry) == {("fallback", "build-failed"): 1.0}
        assert digests(result) == digests(expected)
        with warnings.catch_warnings():     # not run, and not warned, again
            warnings.simplefilter("error")
            runs = native.compiler_runs()
            result, registry, _ = run_registry_kernel()
        assert native.compiler_runs() == runs
        assert kernel_counts(registry) == {("fallback", "build-failed"): 1.0}


# -- (c) the kernel directory -------------------------------------------------

TEXT = ("void k0(const float *restrict a0, float *restrict a1, "
        "long long n0, long long o0, long long o1)\n{\n"
        "  for (long long i0 = 0; i0 < n0; i0++) {\n"
        "    a1[o1 + i0] = a0[o0 + i0];\n  }\n}\n")


def load_in_child(text=TEXT) -> str:
    """The status of ``native._load`` in a forked process: a library
    this process never mapped may be damaged in place."""
    ctx = mp.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=lambda: send.send(native._load(CC, text)[1]))
    child.start()
    child.join(60)
    assert child.exitcode == 0
    return receive.recv()


@pytest.fixture
def kernel_dir(monkeypatch, tmp_path):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    return native.kernel_store().path


class TestKernelDirectory:
    def test_private_to_the_user(self, kernel_dir):
        assert stat.S_IMODE(kernel_dir.stat().st_mode) == 0o700
        assert kernel_dir.name.startswith("repro-kernels-")

    @pytest.mark.parametrize("spoil", [
        lambda path: path.chmod(0o777),
        lambda path: (path.rmdir(), path.symlink_to(path.parent))],
        ids=["world-writable", "a-symlink"])
    def test_an_unsafe_directory_is_refused(self, kernel_dir, spoil):
        """A planted ``.so`` is code execution: a directory others can
        write to is not loaded from; a process-private one is."""
        spoil(kernel_dir)
        private = native.kernel_store().path
        assert private != kernel_dir
        assert stat.S_IMODE(private.stat().st_mode) == 0o700
        lib, status = native._load(CC, TEXT)
        assert status == "built" and lib.k0
        assert not list(kernel_dir.glob("*.so"))
        shutil.rmtree(private)
        native._private_dir.cache_clear()

    @pytest.mark.parametrize("damage", ["truncated", "foreign", "junk"])
    def test_a_damaged_or_foreign_file_is_rebuilt(self, kernel_dir, damage):
        assert load_in_child() == "built"
        assert load_in_child() == "loaded"  # a fresh process: no compile
        entry, = kernel_dir.glob("*.so")
        good = entry.read_bytes()
        if damage == "foreign":     # intact, but another key's content
            load_in_child(TEXT.replace("k0", "k1"))
            other, = set(kernel_dir.glob("*.so")) - {entry}
            entry.write_bytes(other.read_bytes())
        else:
            entry.write_bytes(good[:len(good) // 2] if damage == "truncated"
                              else b"not a shared object")
        lib, status = native._load(CC, TEXT)
        assert status == "built"
        src, dst = np.arange(4, dtype=np.float32), np.zeros(4, np.float32)
        lib.k0(src.ctypes, dst.ctypes, ctypes.c_longlong(4),
               ctypes.c_longlong(0), ctypes.c_longlong(0))
        assert dst.tobytes() == src.tobytes()
        assert entry.read_bytes()[-64:] == entry.stem.encode()
        assert load_in_child() == "loaded"

    def test_two_processes_building_one_key_leave_one_entry(
            self, kernel_dir):
        ctx = mp.get_context("fork")
        start = ctx.Barrier(2)

        def builder():
            start.wait(30)
            native._load(CC, TEXT)

        procs = [ctx.Process(target=builder) for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        assert len(list(kernel_dir.iterdir())) == 1   # no *.tmp left
        lib, status = native._load(CC, TEXT)
        assert status == "loaded" and lib.k0


# -- (d) a parallel run's stripes share the plan's kernel ---------------------

def test_parallel_workers_inherit_kernels_and_never_compile(monkeypatch,
                                                            tmp_path):
    """The plan is prepared once, on the calling thread, before any
    nest runs; each stripe — on whichever thread — is one foreign call
    of that kernel on its row of the nest's region table, and none
    falls back to the tape."""
    from repro.testing import forced_stripes
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))  # a cold build
    expected, _, _ = run_registry_kernel(backend="perpe")
    runs = native.compiler_runs()
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path / "elsewhere"))
    (tmp_path / "elsewhere").mkdir()
    with forced_stripes():
        result, registry, _ = run_registry_kernel(backend="parallel",
                                                  workers=3)
    assert native.compiler_runs() == runs + 1
    # no ``fallback`` sample: the striped table ran the kernel; the
    # striped nest keeps its shifts off the driver
    assert kernel_counts(registry) == {("built", None): 1.0,
                                       ("per-op", "striped"): 1.0}
    assert registry.get("repro_parallel_nests_total").samples() == [
        ((("mode", "striped"),), 1.0)]
    assert digests(result) == digests(expected)


def patch_kernels(monkeypatch, plan) -> list:
    """``nreg`` of every call of ``plan``'s nest kernels from Python."""
    prepare(plan)
    calls = []
    for op in nests_of(plan):
        kernel = plan_tapes(plan).nest(op).kernel
        monkeypatch.setattr(kernel, "fn", lambda n, *args, real=kernel.fn:
                            (calls.append(n), real(n, *args))[1])
    return calls


@pytest.mark.parametrize("workers", [2, 3])
def test_a_striped_nest_is_one_call_per_stripe(workers, monkeypatch):
    """Each stripe of ``parallel`` is a region of the nest's slab table:
    one call of its row."""
    from repro.testing import forced_stripes
    compiled = compile_kernel("nine_point", bindings={"N": 258})
    calls = patch_kernels(monkeypatch, compiled.plan)
    with forced_stripes():
        got, _, registry = observed_run(compiled, "parallel",
                                        workers=workers)
    assert calls == [1] * workers
    assert nest_counts(registry) == [((("mode", "striped"),), 1.0)]
    assert got == observed_run(compile_kernel(
        "nine_point", bindings={"N": 258}), "perpe", segments=False)[0]


@pytest.mark.parametrize("backend", ["perpe", "vectorized", "parallel"])
def test_a_warm_run_builds_no_table(backend, monkeypatch):
    """Nests, stripes and reduction operands alike: the cold run takes
    each box's row (:meth:`Kernel._row`) once, a warm run none."""
    from repro.testing import forced_stripes
    compiled = compile_kernel("cg", bindings={"N": 256, "NITER": 3})
    rows, real = [], native.Kernel._row
    monkeypatch.setattr(native.Kernel, "_row", lambda self, views: (
        rows.append(1), real(self, views))[1])
    with forced_stripes():
        observed_run(compiled, backend, workers=2)
        assert rows
        rows.clear()
        observed_run(compiled, backend, workers=2)
    assert rows == []


def test_toggled_stripes_never_reuse_another_cut():
    """One plan run whole, then cut in two, then in three and back:
    each cut is its own region list, so its own table, and every run is
    ``perpe``'s per-op run by bytes."""
    from contextlib import nullcontext
    from repro.testing import forced_stripes
    bindings = {"N": 256, "NITER": 4}
    compiled = compile_kernel("jacobi", bindings=bindings)
    want = observed_run(compile_kernel("jacobi", bindings=bindings),
                        "perpe", segments=False)[0]
    for forced, workers in [(False, 2), (True, 2), (True, 3), (False, 3),
                            (True, 2)]:
        with forced_stripes() if forced else nullcontext():
            got, _, registry = observed_run(compiled, "parallel",
                                            workers=workers)
        assert got == want
        assert (("mode", "striped"),) in dict(nest_counts(registry)) \
            or not forced


# -- (e) the closed grammar ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(KERNELS))
def test_registry_kernel_text_is_in_the_closed_grammar(name):
    """The service compiles client-submitted programs: nothing but
    positional names, integers and the operator table reaches cc."""
    plan = compile_kernel(name).plan
    dtypes = {a: d.dtype for a, d in plan.arrays.items()}
    tapes = plan_tapes(plan)
    emitted = 0
    for i, op in enumerate(nests_of(plan)):
        try:
            text, _ = native.emit(tapes.nest(op), len(op.space), dtypes,
                                  f"k{i}")
        except native._Ineligible:
            continue
        emitted += 1
        assert GRAMMAR.fullmatch(text), text
        assert not re.search(r"[A-Z]", text)     # no program identifier
    assert emitted or name in ("red_black",)


# -- (f) the three-backend contract above the constant ------------------------

def test_backend_equivalence_above_the_size_constant(monkeypatch):
    spec = KERNELS["purdue9"]
    program = GeneratedProgram(source=spec.source, arrays=sorted(spec.outputs),
                               scalars=dict(spec.default_scalars),
                               bindings={"N": 256})
    rng = np.random.default_rng(5)
    inputs = {"U": rng.standard_normal((256, 256)).astype(np.float32)}
    attached, registries = [], {}
    build = native.build
    monkeypatch.setattr(native, "build", lambda tapes, *a: (
        build(tapes, *a), attached.extend(t.kernel for t, _ in tapes))[0])
    in_context = testing._backend_run_context

    @contextmanager
    def counted(backend):
        registry = registries.setdefault(backend, MetricsRegistry())
        with in_context(backend), use_registry(registry):
            yield

    monkeypatch.setattr(testing, "_backend_run_context", counted)
    backend_equivalence_check(
        program, inputs, levels=("O4", "O5"), outputs=set(spec.outputs))
    assert attached and None not in attached
    # the contract's profiled runs take the default path: ``vectorized``
    # runs its segments; ``parallel``, made to stripe every nest, has
    # each segment built and refused for its striped nest
    assert kernel_counts(registries["vectorized"])[("segment", None)] > 0
    assert kernel_counts(registries["parallel"])[("per-op", "striped")] > 0


# -- (g) native segments: one driver call per loop body ----------------------

def observed_run(compiled, backend="vectorized", grid=(2, 2),
                 segments=True, **kw):
    """One run of ``compiled`` under a live registry on a machine that
    keeps its log; ``(everything the run leaves, the trips of each
    driver call it made, its registry)``.  ``segments=False`` takes the
    plan's driver away: the per-op path; ``segments=None`` leaves it
    alone (runs on other threads share it) and records no trips."""
    result, machine, trips, registry = observed_result(
        compiled, backend, grid, segments, **kw)
    return ({k: v.tobytes() for k, v in result.arrays.items()},
            {k: float(v).hex() for k, v in result.scalars.items()},
            result.report, result.report.rows.tobytes(),
            [(m.src, m.dst, m.nbytes, m.tag) for m in machine.network.log],
            result.peak_memory_per_pe), trips, registry


def observed_result(compiled, backend, grid, segments, **kw):
    """:func:`observed_run`'s run: ``(result, machine, trips,
    registry)``."""
    plan = compiled.plan
    prepare(plan)
    tapes = plan_tapes(plan)
    driver, trips = tapes.driver, []
    if driver is not None and segments is not None:
        tapes.driver = (lambda n, *args: (
            trips.append(n), driver(n, *args))[1]) if segments else None
    rng = np.random.default_rng(3)
    inputs = {a: rng.standard_normal(d.shape).astype(d.dtype)
              for a, d in plan.arrays.items() if a in plan.entry_arrays}
    scalars = {s: 0.5 + 0.1 * i
               for i, s in enumerate(sorted(plan.scalar_names))}
    try:
        machine, registry = Machine(grid=grid), MetricsRegistry()
        with use_registry(registry):
            result = compiled.run(machine, inputs=inputs, scalars=scalars,
                                  backend=backend, **kw)
    finally:
        tapes.driver = driver
    return result, machine, trips, registry


def warm_run(compiled, backend="vectorized", grid=(2, 2), segments=True,
             **kw):
    """A cold run of ``compiled``, then :func:`observed_run`."""
    observed_run(compiled, backend, grid, segments, **kw)
    return observed_run(compiled, backend, grid, segments, **kw)


def nest_counts(registry) -> "list | None":
    metric = registry.get("repro_parallel_nests_total")
    return None if metric is None else sorted(metric.samples())


def compile_case(name: str, **bindings):
    """A registry kernel; ``cg-float64`` is ``cg`` in DOUBLE PRECISION."""
    if name != "cg-float64":
        return compile_kernel(name, bindings=bindings)
    from repro.compiler import compile_hpf
    spec = KERNELS["cg"]
    return compile_hpf(spec.source.replace("REAL", "DOUBLE PRECISION"),
                       bindings={**spec.default_bindings, **bindings},
                       outputs=set(spec.outputs))


@pytest.mark.parametrize("backend", ["vectorized", "parallel", "perpe"])
@pytest.mark.parametrize("name", ["nine_point", "purdue9", "five_point",
                                  "seven_point_3d", "box27_3d", "jacobi",
                                  "cg", "cg-float64"])
def test_segments_equal_the_per_op_path(name, backend, monkeypatch):
    """Arrays, scalars, report (rows by bytes), tagged log and peak
    memory of a warm run in segments are the per-op path's, on a ragged
    grid; ``parallel``'s whole-nest counts stay as they were.  ``cg``'s
    SUMs fold float32 or float64 partials in the driver."""
    monkeypatch.setattr(native, "MIN_POINTS", 0)
    n = 14 if name.endswith("_3d") else 26
    compiled = compile_case(name, N=n)
    got, trips, registry = warm_run(compiled, backend, (3, 2), workers=2)
    want, none, per_op = warm_run(compiled, backend, (3, 2), False,
                                  workers=2)
    assert got == want and none == []
    assert trips
    assert nest_counts(registry) == nest_counts(per_op)


def sum_steps(plan) -> int:
    """SUM steps of the segments built for ``plan`` so far."""
    return sum(kernel.sums for _, held in plan_tapes(plan)._schedules.values()
               for built in held.values() if type(built).__name__ == "_Steps"
               for kernel, _ in built.nests)


#: generated programs whose ``DO KK`` body holds ``S = SUM(...)`` in a
#: segment with the nest that reads ``S``
SUM_IN_LOOP = (69, 123)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), ndim=st.sampled_from([2, 3]),
       backend=st.sampled_from(["vectorized", "parallel", "perpe"]))
@example(seed=SUM_IN_LOOP[0], ndim=2, backend="parallel")
@example(seed=SUM_IN_LOOP[1], ndim=2, backend="vectorized")
@example(seed=SUM_IN_LOOP[1], ndim=2, backend="perpe")
def test_random_programs_in_segments_equal_the_per_op_path(seed, ndim,
                                                           backend):
    """A segment's SUM steps and scalar assignments leave what the per-op
    path leaves; a MAXVAL/MINVAL assignment ends its segment, counted."""
    from repro.compiler import compile_hpf
    from repro.testing import GeneratorConfig, _constant, random_program
    program = random_program(seed, GeneratorConfig(
        n=12 if ndim == 2 else 8, ndim=ndim, allow_where=False,
        allow_intrinsics=False))
    compiled = compile_hpf(program.source, bindings=program.bindings,
                           outputs=set(program.arrays))
    with _constant(native, "MIN_POINTS", 0), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, _, cold = observed_run(compiled, backend, workers=2)
        got, _, _ = observed_run(compiled, backend, workers=2)
        want, _, _ = warm_run(compiled, backend, segments=False, workers=2)
    assert got == want
    ends = {reason for status, reason in kernel_counts(cold)
            if status == "per-op"}
    assert {op.lower() for op in ("MAXVAL", "MINVAL")
            if f"{op}(" in program.source} <= ends
    if ndim == 2 and seed in SUM_IN_LOOP:
        assert sum_steps(compiled.plan)


def test_a_segment_outlives_the_schedules_it_was_built_from(monkeypatch):
    """Two schedules per node: ``jacobi``'s swapped nests take two keys
    per grid, its segments one, so warm runs on a second grid evict the
    first grid's nest schedules while its segment steps stay.  Run there
    again, they must still be the per-op path's run — their steps point
    into region tables the steps hold themselves."""
    monkeypatch.setattr(native, "MIN_POINTS", 0)
    monkeypatch.setattr(nest_tape, "SCHEDULES_PER_OP", 2)
    compiled = compile_kernel("jacobi", bindings={"N": 26, "NITER": 3})
    tapes = plan_tapes(compiled.plan)

    def kept(kind):
        return [sched for _, held in tapes._schedules.values()
                for sched in held.values() if type(sched).__name__ == kind]

    want, _, _ = warm_run(compiled, grid=(3, 2), segments=False)
    warm_run(compiled, grid=(3, 2))
    steps = kept("_Steps")
    tables = [table for built in steps for *_, table in built.nests]
    warm_run(compiled, grid=(2, 2))
    after = kept("_Steps")
    assert tables and all(any(built is k for k in after) for built in steps)
    in_schedules = [found for sched in kept("_Schedule")
                    for found in sched.tables.values()]
    # the loop's nests: held by the steps alone
    assert any(all(table is not found for found in in_schedules)
               for table in tables)
    got, trips, _ = observed_run(compiled, grid=(3, 2))
    assert trips and got == want


def test_evicted_segments_rebuild_and_equal_the_per_op_path(monkeypatch):
    """One schedule per node: warm runs on other grids evict the first
    grid's op schedules and segment steps alike.  Run there again, the
    segments are rebuilt — their steps point into region tables they
    hold themselves — and are still the per-op path's run."""
    monkeypatch.setattr(native, "MIN_POINTS", 0)
    monkeypatch.setattr(nest_tape, "SCHEDULES_PER_OP", 1)
    builds = []
    real = executor._Exec._build_segment
    monkeypatch.setattr(executor._Exec, "_build_segment",
                        lambda self, *a: (builds.append(1), real(self, *a))[1])
    compiled = compile_kernel("nine_point", bindings={"N": 26})
    want, _, _ = warm_run(compiled, grid=(3, 2), segments=False)
    warm_run(compiled, grid=(3, 2))
    for grid in ((2, 2), (2, 3), (4, 1)):
        warm_run(compiled, grid=grid)
    builds.clear()
    got, trips, _ = observed_run(compiled, grid=(3, 2))
    assert builds and trips and got == want
    builds.clear()
    assert observed_run(compiled, grid=(3, 2))[0] == want and not builds


def test_a_cold_jacobi_run_takes_segments():
    """The first run builds its members' schedules and its segments as
    it goes: the preheader is one driver call, all 20 trips one more."""
    compiled = compile_kernel("jacobi", bindings={"N": 256, "NITER": 20})
    got, trips, registry = observed_run(compiled, grid=(4, 4))
    assert trips == [1, 20]
    assert kernel_counts(registry)[("segment", None)] == 2.0
    want, _, _ = observed_run(compile_kernel(
        "jacobi", bindings={"N": 256, "NITER": 20}), "perpe", (4, 4), False)
    assert got == want


def test_a_shift_beyond_its_halo_in_a_loop_fails_alike_everywhere(
        monkeypatch):
    """A hand-built ``DO`` body whose ``OVERLAP_SHIFT`` exceeds the
    overlap area: a segment's build raises what the per-op path
    raises."""
    from repro.errors import ExecutionError
    from repro.ir.linexpr import LinExpr
    from repro.plan import OverlapShiftOp, SeqLoopOp
    from repro.runtime.executor import execute
    from tests.plan.helpers import copy_nest, simple_plan
    monkeypatch.setattr(native, "MIN_POINTS", 0)
    errors = set()
    for backend in ("perpe", "vectorized", "parallel"):
        plan = simple_plan([SeqLoopOp(
            var="K", lo=LinExpr(1), hi=LinExpr(3),
            body=[OverlapShiftOp(array="U", shift=2, dim=1),
                  copy_nest("U", "U")])])
        prepare(plan)
        assert plan_tapes(plan).driver is not None
        with pytest.raises(ExecutionError) as raised:
            execute(plan, Machine(grid=(2, 2)), backend=backend, workers=2)
        errors.add((type(raised.value), str(raised.value)))
    assert errors == {(ExecutionError, "U: overlap area too small for "
                                       "shift +2 along dim 1 (halo=(1, 1))")}


def test_a_warm_jacobi_loop_is_one_driver_call():
    """N=256 on 4x4: the preheader's shifts and copy nest are one call,
    and all 20 trips of the DO loop one more."""
    compiled = compile_kernel("jacobi", bindings={"N": 256, "NITER": 20})
    _, trips, registry = warm_run(compiled, grid=(4, 4))
    assert trips == [1, 20]
    assert kernel_counts(registry) == {("segment", None): 2.0}


def test_perpe_runs_take_segments():
    """The cell-per-PE storage takes the slab's segments: a nest step is
    one row per PE box of the table the per-op path runs."""
    compiled = compile_kernel("jacobi", bindings={"N": 256, "NITER": 4})
    got, trips, registry = warm_run(compiled, "perpe")
    assert trips == [1, 4]
    assert kernel_counts(registry) == {("segment", None): 2.0}
    assert got == warm_run(compiled, "perpe", segments=False)[0]


@pytest.mark.parametrize("name", ["jacobi", "cg"])
@pytest.mark.parametrize("backend, observe", [
    ("vectorized", "tracer"), ("parallel", "tracer"),
    ("vectorized", "profile"), ("parallel", "profile"),
], ids=["traced", "traced-parallel", "profiled", "profiled-parallel"])
def test_observed_runs_make_driver_calls(name, backend, observe):
    """A traced or profiled slab run is the untraced one: the preheader
    and all 20 trips of the loop are two driver calls, and it leaves
    what ``perpe``'s per-op path leaves."""
    compiled = compile_kernel(name, bindings={"N": 256, "NITER": 20})
    kw = {"tracer": Tracer()} if observe == "tracer" else {"profile": True}
    got, trips, registry = warm_run(compiled, backend, (4, 4), workers=2,
                                    **kw)
    assert trips == [1, 20]
    assert kernel_counts(registry) == {("segment", None): 2.0}
    want, _, _ = warm_run(compiled, "perpe", (4, 4), False)
    assert got == want


@pytest.mark.parametrize("name", ["jacobi", "cg"])
def test_observed_perpe_segments_file_the_per_op_spans(name):
    """``perpe`` traced and profiled, N=256 on 4x4: its two driver calls
    file the per-op path's op spans, names and attributes, and the same
    profile rows own every message (``jacobi``: 1,344)."""
    compiled = compile_kernel(name, bindings={"N": 256, "NITER": 20})
    seen = []
    for segments in (True, False):
        tracer = Tracer()
        _, _, trips, _ = observed_result(compiled, "perpe", (4, 4), segments,
                                         tracer=tracer)
        assert trips == ([1, 20] if segments else [])
        spans = [(span.name, span.attrs) for span in tracer.spans()
                 if span.kind == "op"]
        result, _, trips, _ = observed_result(compiled, "perpe", (4, 4),
                                              segments, profile=True)
        assert trips == ([1, 20] if segments else [])
        doc = result.profile.to_dict()
        owners = [(row["op"], row["name"], row["detail"], row["messages"],
                   row["bytes"]) for row in doc["validation"]["rows"]
                  if row["messages"]]
        total = doc["totals"]["messages"]
        assert sum(row[3] for row in owners) == total > 0
        seen.append((spans, owners, total))
    assert seen[0] == seen[1]
    assert name != "jacobi" or seen[0][2] == 1344


def masked(profile) -> dict:
    """``profile.to_dict()`` without its wall-clock fields."""
    doc = profile.to_dict()
    validation, totals = dict(doc["validation"]), dict(doc["totals"])
    validation["rows"] = [{**row, "wall_s": None}
                          for row in validation["rows"]]
    validation["scale_wall_per_modelled"] = validation["mape_pct"] = None
    totals["wall_s"] = None
    doc.update(validation=validation, totals=totals)
    if "worker_tracks" in doc:
        doc["worker_tracks"] = [
            {**track, "wall_s": None, "events": [
                {**event, "t0": None, "t1": None}
                for event in track["events"]]}
            for track in doc["worker_tracks"]]
    return doc


def span_tree(tracer) -> list:
    return [(sid, parent, span.name, span.kind, span.attrs)
            for span, sid, parent in tracer.iter_with_ids()]


def assert_timed(span) -> None:
    """``span``'s children lie inside it, one after the other."""
    assert span.t_start <= span.t_end
    end = span.t_start
    for child in span.children:
        assert end <= child.t_start <= child.t_end <= span.t_end
        end = child.t_end
        assert_timed(child)


@pytest.mark.parametrize("backend", ["vectorized", "parallel", "perpe"])
@pytest.mark.parametrize("name, iterations", [
    ("nine_point", 4), ("jacobi", 1), ("cg", 1)])
def test_observed_segments_equal_the_per_op_path(name, iterations, backend,
                                                 monkeypatch):
    """A traced run in segments files the per-op path's span tree, its
    spans nested and in order in time; a profiled run's profile is the
    per-op path's but for wall-clock fields."""
    monkeypatch.setattr(native, "MIN_POINTS", 0)
    compiled = compile_kernel(name, bindings={"N": 26})
    trees, profiles = [], []
    for segments in (True, False):
        observed_result(compiled, backend, (3, 2), segments,
                        iterations=iterations, workers=2)
        tracer = Tracer()
        _, _, trips, registry = observed_result(
            compiled, backend, (3, 2), segments, iterations=iterations,
            workers=2, tracer=tracer)
        assert bool(trips) == segments
        trees.append(span_tree(tracer))
        for root in tracer.roots:
            assert_timed(root)
        result, _, _, _ = observed_result(
            compiled, backend, (3, 2), segments, iterations=iterations,
            workers=2, profile=True)
        profiles.append(masked(result.profile))
    assert trees[0] == trees[1]
    assert profiles[0] == profiles[1]


def test_a_striped_nest_keeps_the_per_op_path_counted():
    from repro.testing import forced_stripes
    compiled = compile_kernel("jacobi", bindings={"N": 256, "NITER": 4})
    with forced_stripes():
        got, trips, registry = warm_run(compiled, "parallel", workers=2)
    assert trips == []
    # the preheader, the DO loop, then each of its four trips
    assert kernel_counts(registry)[("per-op", "striped")] == 6.0
    assert got == warm_run(compiled, "perpe", segments=False)[0]


@pytest.mark.parametrize("backend", ["vectorized", "parallel"])
def test_a_warm_cg_loop_is_one_driver_call(backend):
    """N=256 on 4x4: the setup nest and ``RZ = SUM(R * R)`` are one
    call, and all 20 trips of the DO loop — its nests, shifts, both
    SUMs and all four scalar assignments — one more; everything the run
    leaves is ``perpe``'s per-op path's."""
    compiled = compile_kernel("cg", bindings={"N": 256, "NITER": 20})
    got, trips, registry = warm_run(compiled, backend, (4, 4), workers=2)
    assert trips == [1, 20]
    assert kernel_counts(registry) == {("segment", None): 2.0}
    want, _, _ = warm_run(compiled, "perpe", (4, 4), False)
    assert got == want


def test_a_zero_divisor_raises_where_the_per_op_path_raises():
    """``cg`` with ``B = 0``: ``ALPHA = RZ / PAP`` is 0/0 in the first
    trip.  The driver stops before it, the trip's first ops are charged
    and the division runs per op: every backend raises Python's error
    with the same cost rows and tagged log as ``perpe`` with the driver
    taken away."""
    outcomes = []
    for backend, segments in (("perpe", False), ("perpe", True),
                              ("vectorized", True), ("parallel", True)):
        compiled = compile_kernel("cg", bindings={"N": 256, "NITER": 20})
        tapes = prepare(compiled.plan)
        driver, trips = tapes.driver, []
        tapes.driver = (lambda n, *args: (
            trips.append(n), driver(n, *args))[1]) if segments else None
        machine = Machine(grid=(4, 4))
        try:
            with pytest.raises(ZeroDivisionError) as raised:
                compiled.run(machine, inputs={"B": np.zeros((256, 256),
                                                            np.float32)},
                             scalars={"SIGMA": 0.5}, backend=backend,
                             workers=2)
        finally:
            tapes.driver = driver
        assert trips == ([1, 20] if segments else [])
        outcomes.append((str(raised.value), machine.report.rows.tobytes(),
                         tuple((m.src, m.dst, m.nbytes, m.tag)
                               for m in machine.network.log)))
    assert all(each == outcomes[0] for each in outcomes[1:])


def test_threads_running_one_segment_each_equal_a_serial_run():
    """The scalar file, the SUM scratch and the partials are each run's
    own: two threads running ``cg``'s segments of one plan on one
    geometry at once each leave what a serial run leaves."""
    import threading
    from concurrent.futures import ThreadPoolExecutor
    compiled = compile_kernel("cg", bindings={"N": 256, "NITER": 20})
    want, trips, _ = warm_run(compiled, grid=(4, 4))
    assert trips == [1, 20]
    start = threading.Barrier(2)

    def runs():
        start.wait()
        return [observed_run(compiled, grid=(4, 4), segments=None)[0]
                for _ in range(3)]

    with ThreadPoolExecutor(2) as pool:
        got = [run.result() for run in [pool.submit(runs) for _ in "ab"]]
    assert all(each == want for results in got for each in results)


# -- (h) a move step is fill_overlap -------------------------------------------

@cache
def segment_driver():
    """A ``run_steps`` of a one-nest translation unit."""
    tape = NestTape([("C", ref("A", 0), None)], 1)
    return native.build([(tape, 1)], dict.fromkeys("AC", np.dtype(np.float64)))


#: a NaN whose payload both dtypes keep bits of
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8_1234_5678_9ABC))[0]

#: grid and distribution over an (11, 7) array: even and ragged blocks,
#: a 1-wide grid dimension, a collapsed dimension; a halo of 2 fits all
MOVE_LAYOUTS = [((2, 2), Distribution.block(2)),
                ((3, 2), Distribution.block(2)),
                ((1, 2), Distribution.block(2)),
                ((4,), Distribution((DistKind.BLOCK, DistKind.COLLAPSED)))]


@settings(max_examples=80, deadline=None)
@given(layout=st.sampled_from(MOVE_LAYOUTS),
       dtype=st.sampled_from([np.float32, np.float64]), slab=st.booleans(),
       dim=st.sampled_from([1, 2]), shift=st.sampled_from([-2, -1, 1, 2]),
       widen=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       boundary=st.sampled_from([None, 0.5, -0.0, PAYLOAD_NAN]),
       seed=st.integers(0, 2**16))
def test_a_move_step_leaves_the_arena_fill_overlap_leaves(
        layout, dtype, slab, dim, shift, widen, boundary, seed):
    """One ``run_steps`` call of a one-move step table leaves the arena
    byte for byte as ``fill_overlap``: shifts up to the halo either way
    along each dimension, widened (corner) shifts, every boundary kind,
    on either storage — the step holds indices, no placement logic."""
    grid, dist = layout
    machine = Machine(grid=grid)
    lay = Layout((11, 7), dist, machine.topology)
    halo = ((2, 2), (2, 2))
    got, want = (DArray.create(machine, name, lay, np.dtype(dtype), halo,
                               slab) for name in "UV")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(got.data.shape).astype(dtype)
    nan = np.array(PAYLOAD_NAN, dtype)
    values[rng.random(values.shape) < 0.2] = -nan
    got.data[...] = want.data[...] = values
    rsd = RSD(tuple(None if k == dim - 1 else RSDim(*widen)
                    for k in range(2)))
    op = OverlapShift("U", lay, got.dtype, halo, shift, dim,
                      Charges(machine.cost_model), rsd, boundary=boundary)
    want.fill_overlap(op)
    step, _ = executor._move_step(0, got, op)
    steps = np.array(step, np.int64)
    bufs, file = np.array([got.arena[0]], np.int64), np.zeros(1)
    assert segment_driver()(1, steps.size, steps.ctypes.data,
                            bufs.ctypes.data, file.ctypes.data, None) == -1
    assert want.data.tobytes() != values.tobytes()
    assert got.data.tobytes() == want.data.tobytes()
