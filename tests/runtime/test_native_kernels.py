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
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.nodes import (
    BinOp, Compare, Const, Intrinsic, OffsetRef, ScalarRef, UnaryOp,
)
from repro.kernels import KERNELS, compile_kernel
from repro.machine import Machine
from repro.obs import MetricsRegistry, Tracer, use_registry
from repro.plan import LoopNestOp
from repro.runtime import native
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


GRAMMAR = re.compile(r"""
    void\ k\d+\((?:(?:const\ )?(?:float|double)\ \*restrict\ a\d+,\ )+
        (?:long\ long\ [nso][\d_]+(?:,\ )?)+
        (?:,\ double\ d\d+)*\)\n
    \{\n
    (?:\ +const\ (?:float|double)\ c\d+\ =\ \((?:float|double)\)d\d+;\n)*
    (?:\ +for\ \(long\ long\ (i\d)\ =\ 0;\ \1\ <\ n\d;\ \1\+\+\)\ \{\n
       (?:\ +const\ long\ long\ b\d+_\d\ =\ (?:b\d+_\d\ \+\ )?i\d\ \*\ s\d+_\d;\n)*)+
    (?:\ +(?:const\ (?:float|double)\ t\d+|a\d+\[[bio\d_ +]+\])\ =
       \ (?:neg_(?:float|double)\((?:t\d+|c\d+|a\d+\[[bio\d_ +]+\])\)
          |(?:t\d+|c\d+|a\d+\[[bio\d_ +]+\])
           (?:\ [-+*/]\ (?:t\d+|c\d+|a\d+\[[bio\d_ +]+\]))?);\n)+
    (?:\ *\}\n)+""", re.VERBOSE)


@settings(max_examples=25, deadline=None)
@given(fused_nests())
def test_native_and_ufunc_tape_agree_bitwise(nest):
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
            ran = tape.run(bind(tape, got, box), scalars, {})
            reference.run(bind(reference, expected, box), scalars, {})
        # only a strong scalar of the other dtype may send a call back
        assert ran is None or foreign
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
    assert tape.run(bind(tape, got, [(0, 4)]), [], {}) is None
    reference.run(bind(reference, expected, [(0, 4)]), [], {})
    assert got["C"].tobytes() == expected["C"].tobytes()
    assert np.signbit(got["C"][1]) and not np.signbit(got["C"][2])


# -- (b) every reason to stay on the tape ------------------------------------

@pytest.mark.parametrize("reason, statements, dtypes", [
    ("reduction", [(None, ref("A", 0, 0), None)], {}),
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
    """Views of another dtype or with a non-unit inner stride, and a
    strong scalar of another dtype, are seen per call."""
    statements = [("C", BinOp("*", ScalarRef("S"), ref("A", 0, 1)), None)]
    tape, reference = NestTape(statements, 2), NestTape(statements, 2)
    native.build([(tape, 2)], dict.fromkeys("AC", np.dtype(np.float32)))
    box = [(0, 3), (0, 3)]

    def run(arrays, scalar, views=bind):
        registry = MetricsRegistry()
        expected = {k: v.copy() for k, v in arrays.items()}
        with use_registry(registry):
            ran = tape.run(views(tape, arrays, box), [scalar], {})
        reference.run(views(reference, expected, box), [scalar], {})
        for name in arrays:
            assert arrays[name].tobytes() == expected[name].tobytes()
        return ran, kernel_counts(registry)

    def every_other_column(tape, arrays, box):
        return [v[:, ::2] for v in bind(tape, arrays, box)]

    f32 = make_arrays((4, 4), np.float32, 0)
    assert run(f32, 1.25) == (None, {})
    assert run(f32, np.float32(1.25)) == (None, {})
    assert run(f32, 3) == (None, {})
    for arrays, scalar, views, reason in [
            (f32, np.float64(1.25), bind, "strong-scalar"),
            (f32, 1 << 60, bind, "strong-scalar"),
            (make_arrays((4, 4), np.float64, 0), 1.25, bind, "dtype"),
            (f32, 1.25, every_other_column, "stride")]:
        ran, counted = run(arrays, scalar, views)
        assert ran is not None
        assert counted == {("fallback", reason): 1.0}


class TestPlanLevelSelection:
    def test_a_plan_above_the_constant_runs_natively(self):
        tracer = Tracer()
        result, registry, plan = run_registry_kernel(tracer=tracer)
        # one kernel obtained and no ``fallback`` sample: no nest, at
        # plan level or per call, ran the tape
        assert kernel_counts(registry) in ({("built", None): 1.0},
                                           {("loaded", None): 1.0})
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
        assert kernel_counts(registry) == {("built", None): 1.0}
        assert registry.get("repro_native_build_seconds") \
            .value()["count"] == 1
        _, registry, _ = run_registry_kernel("purdue9")
        assert kernel_counts(registry) == {("loaded", None): 1.0}
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
    of that kernel on its rows, and none falls back to the tape."""
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
    # per-call fallbacks are counted from the stripes' own threads, so
    # no ``fallback`` sample means every stripe ran the kernel
    assert kernel_counts(registry) == {("built", None): 1.0}
    assert registry.get("repro_parallel_nests_total").samples() == [
        ((("mode", "striped"),), 1.0)]
    assert digests(result) == digests(expected)


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
    attached = []
    build = native.build
    monkeypatch.setattr(native, "build", lambda tapes, *a: (
        build(tapes, *a), attached.extend(t.kernel for t, _ in tapes))[0])
    backend_equivalence_check(
        program, inputs, levels=("O4", "O5"), outputs=set(spec.outputs))
    assert attached and None not in attached
