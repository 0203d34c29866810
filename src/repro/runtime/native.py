"""Native nest kernels: a tape's nest as one ``cc``-compiled fused loop.

Scalarization and fusion leave "a single subgrid loop nest" for a node
compiler to optimize (paper section 3.4); this module hands it one.
From a :class:`~repro.runtime.nest_tape.NestTape`'s instruction list it
emits one C function per nest — loops over the box, innermost dimension
contiguous, one ``restrict`` base pointer and row strides per *array*
(every placement keeps one buffer per array name), one element offset
per reference, each arithmetic instruction one statement in the array
dtype, stores in statement order — builds one translation unit per plan
with the system ``cc``, keeps the shared object in a content-addressed
:mod:`repro.store` directory and calls it through ``ctypes``, one
foreign call per box.  Scalar-only subtrees are still evaluated in
Python and passed by value; extents, strides, offsets and scalars are
all run-time arguments, so the text depends on nest structure only and
is drawn from a closed grammar (positional names, a fixed operator
table, no identifier or literal of a submitted program).

Why ``-O3`` keeps NumPy's bits: without ``-ffast-math`` and with
``-ffp-contract=off`` the compiler may neither reassociate nor fuse a
multiply into an add, so each point's value is computed by the same
IEEE operations in the same order as the ufunc tape computes it;
vectorization reorders work *across* points, never within one.

Selection is by what the code can observe, never by an option.  Per
plan: NumPy 2 promotion, an iteration space of at least
:data:`MIN_POINTS`, a ``cc`` on the path, a build that succeeds.  Per
nest, statically: stores only (no reduction operand), no mask, only
``+ - * /`` and unary minus on arrays, arrays all ``float32`` or all
``float64``, no assigned array read at a nonzero offset.  Per call:
views of that dtype with unit inner stride, and scalars that are weak
(Python ``float``/``int``) or of the array dtype.  Anything else runs
the ufunc tape, counted in ``repro_native_kernels_total`` by reason.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import stat
import tempfile
import warnings
from functools import cache
from time import perf_counter

import numpy as np

from repro.errors import SemanticError
from repro.store import Codec, DiskStore, shared_disk_store

#: No ``-march``: a kernel file is shared by every process of this user
#: on this host, whatever CPU flags a container exposes.
CC_FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-shared",
            "-fPIC")

#: Plans whose largest nest covers fewer points stay on the ufunc tape
#: and never look for a compiler.  A cold build is ~0.1 s (``cc -O3`` of
#: a 9-point nest, 90 ms here) plus ~5 ms per process to load; the tape
#: is ~2.5 ms per sweep slower at 2**16 points, so a plan this small
#: needs dozens of sweeps to repay a build and a test-sized one never
#: does.
MIN_POINTS = 1 << 16

#: Seconds one ``cc`` run may take before the plan falls back.
BUILD_TIMEOUT_S = 60.0

_CTYPE = {np.dtype(np.float32): "float", np.dtype(np.float64): "double"}
#: Unary minus flips the sign bit and nothing else, NaNs included, as
#: ``np.negative`` does; written as the bit operation so the compiler
#: cannot fold ``a + (-b)`` into ``a - b``, which answers a NaN ``b``
#: with the other sign.
PRELUDE = "".join(
    f"static inline {real} neg_{real}({real} x) {{ union {{ {real} f; "
    f"{bits} u; }} v = {{ x }}; v.u ^= ({bits})1 << {n}; return v.f; }}\n"
    for real, bits, n in (("float", "unsigned", 31),
                          ("double", "unsigned long long", 63)))
_OPS = {np.add: "+", np.subtract: "-", np.multiply: "*",
        np.true_divide: "/"}
_EXACT_INT = 1 << 53

#: ``cc`` runs made so far (:func:`compiler_runs`)
_CC_RUNS = 0
#: compilers whose build failed or timed out in this process
_BROKEN: set[str] = set()


def compiler_runs() -> int:
    """``cc`` invocations made by this process."""
    return _CC_RUNS


# -- the kernel directory ---------------------------------------------------

def _check_blob(blob: bytes) -> bytes:
    """A stored kernel is ``shared object + sha256(shared object) +
    key`` (both hex); anything whose digest does not match — truncated,
    overwritten — is a miss and is rebuilt, never loaded."""
    if hashlib.sha256(blob[:-128]).hexdigest().encode() != blob[-128:-64]:
        raise ValueError("damaged kernel file")
    return blob


SO_CODEC = Codec(".so", bytes, _check_blob, binary=True)


@cache
def _private_dir() -> str:
    return tempfile.mkdtemp(prefix="repro-kernels-")


def kernel_store() -> DiskStore:
    """The one per-user kernel directory, independent of any
    ``--cache-dir``: ``<tmp>/repro-kernels-<uid>``, mode 0700.  Loading
    a shared object is code execution, so a directory this user does
    not own, or that others may write to, is refused in favour of a
    process-private one."""
    uid = getattr(os, "getuid", int)()
    path = os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    st = os.lstat(path)
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != uid \
            or st.st_mode & 0o022:
        path = _private_dir()
    return shared_disk_store(path, SO_CODEC, label="native-kernels")


# -- emission ---------------------------------------------------------------

class _Ineligible(Exception):
    """The nest stays on the ufunc tape; ``args[0]`` is the reason."""


def emit(tape, rank: int, dtypes, name: str):
    """``(C text, call layout)`` of ``tape``'s nest as function ``name``;
    ``dtypes`` maps array name -> dtype.  Raises :class:`_Ineligible`."""
    stmts, refs = tape.stmts, tape.refs
    if any(s.dst is None for s in stmts):
        raise _Ineligible("reduction")
    if any(s.mask is not None for s in stmts):
        raise _Ineligible("mask")
    kinds = {np.dtype(dtypes[array]) for array, _ in refs}
    if len(kinds) != 1 or not kinds <= set(_CTYPE):
        raise _Ineligible("dtype")
    dtype, = kinds
    assigned = {refs[s.dst][0] for s in stmts}
    if any(array in assigned and any(offsets) for array, offsets in refs):
        raise _Ineligible("offset-read-of-assigned")
    arrays = list(dict.fromkeys(array for array, _ in refs))
    array_of = [arrays.index(array) for array, _ in refs]
    real = _CTYPE[dtype]
    row = f"b{{0}}_{rank - 2} + " if rank > 1 else ""
    is_array = set(range(len(refs)))
    scalar_args: dict[int, int] = {}    # slot -> its ``d``/``c`` index
    scalar_code, body = [], []

    def operand(slot: int) -> str:
        if slot < len(refs):
            k = array_of[slot]
            return f"a{k}[{row.format(k)}o{slot} + i{rank - 1}]"
        if slot in is_array:
            return f"t{slot}"
        return f"c{scalar_args.setdefault(slot, len(scalar_args))}"

    for stmt in stmts:
        for fn, args, dst, reuse in stmt.code:
            if is_array.isdisjoint(args):
                scalar_code.append((fn, args, dst))
                continue
            if not reuse:
                raise _Ineligible("op")
            is_array.add(dst)
            x = [operand(a) for a in args]
            body.append(f"const {real} t{dst} = " + (
                f"neg_{real}({x[0]});" if len(x) == 1
                else f"{x[0]} {_OPS[fn]} {x[1]};"))
        body.append(f"{operand(stmt.dst)} = {operand(stmt.value)};")

    params = [f"{'' if array in assigned else 'const '}{real} "
              f"*restrict a{k}" for k, array in enumerate(arrays)]
    params += [f"long long n{d}" for d in range(rank)]
    params += [f"long long s{k}_{d}" for k in range(len(arrays))
               for d in range(rank - 1)]
    params += [f"long long o{j}" for j in range(len(refs))]
    params += [f"double d{m}" for m in range(len(scalar_args))]
    lines = [f"void {name}({', '.join(params)})", "{"]
    lines += [f"  const {real} c{m} = ({real})d{m};"
              for m in range(len(scalar_args))]
    for d in range(rank):
        pad = "  " * (d + 1)
        lines.append(f"{pad}for (long long i{d} = 0; i{d} < n{d}; "
                     f"i{d}++) {{")
        if d < rank - 1:
            lines += [f"{pad}  const long long b{k}_{d} = "
                      f"{f'b{k}_{d - 1} + ' if d else ''}i{d} * s{k}_{d};"
                      for k in range(len(arrays))]
    lines += ["  " * (rank + 1) + line for line in body]
    lines += ["  " * d + "}" for d in range(rank, -1, -1)]
    groups = [[(j, refs[j][1]) for j, k in enumerate(array_of) if k == g]
              for g in range(len(arrays))]
    return "\n".join(lines) + "\n", (
        name, dtype, rank, groups, scalar_code, list(scalar_args),
        tape.tail)


class Kernel:
    """One nest's loaded function and what a call must marshal.  Called
    with a tape's views and scalars; true when it ran the box."""

    def __init__(self, lib, layout) -> None:
        import ctypes
        name, self.dtype, self.rank, self.groups, self.scalar_code, \
            self.scalar_slots, self.tail = layout
        narrays, nrefs = len(self.groups), sum(map(len, self.groups))
        self._lib = lib         # the function pointer does not hold it
        self.fn = getattr(lib, name)
        self.fn.restype = None
        # bases; extents, row strides per array, reference offsets; scalars
        self.fn.argtypes = [ctypes.c_void_p] * narrays \
            + [ctypes.c_longlong] * (
                self.rank + narrays * (self.rank - 1) + nrefs) \
            + [ctypes.c_double] * len(self.scalar_slots)
        #: byte strides of each array -> (element strides, element
        #: offsets of every reference) or the reason they cannot be used
        self._steps: dict = {}

    def __call__(self, views: list, scalars: list) -> bool:
        reason = self._run(views, scalars)
        if reason is not None:
            _count(1, status="fallback", reason=reason)
        return reason is None

    def _elements(self, key: tuple):
        """Strides and reference offsets in elements for arrays of byte
        strides ``key`` (one tuple per array): a reference is its
        array's first reference displaced by their offset difference."""
        item = self.dtype.itemsize
        strides, offsets = [], [0] * sum(map(len, self.groups))
        for steps, refs in zip(key, self.groups):
            if steps[-1] != item or any(s % item for s in steps):
                return "stride"
            steps = [s // item for s in steps]
            strides += steps[:-1]
            first = refs[0][1]
            for j, at in refs:
                offsets[j] = sum((a - b) * s
                                 for a, b, s in zip(at, first, steps))
        return strides + offsets

    def _run(self, views: list, scalars: list) -> "str | None":
        """Marshal and call; the fallback reason when this call cannot
        be proven bitwise or memory-safe.  One address is taken per
        array (its first reference's view, bounds-checked by NumPy);
        every other reference must be a view of the same buffer with
        the same shape and strides, which the binder displaces by the
        reference's static offsets."""
        dtype, shape = self.dtype, views[0].shape
        if len(shape) != self.rank:
            return "stride"
        bases, key = [], []
        for refs in self.groups:
            first = views[refs[0][0]]
            steps, owner = first.strides, first.base
            for j, _ in refs:
                v = views[j]
                if v.dtype != dtype:
                    return "dtype"
                if v.shape != shape or v.strides != steps \
                        or v.base is not owner \
                        or (owner is None and v is not first):
                    return "stride"
            key.append(steps)
            bases.append(first.ctypes.data)
        key = tuple(key)
        elements = self._steps.get(key)
        if elements is None:
            elements = self._steps[key] = self._elements(key)
        if elements.__class__ is str or any(
                b % dtype.itemsize for b in bases):
            return "stride"
        vals = views + scalars + self.tail
        for fn, args, dst in self.scalar_code:
            vals[dst] = fn(*[vals[a] for a in args])
        values = []
        for slot in self.scalar_slots:
            s = vals[slot]
            kind = type(s)
            # NEP 50: a Python number takes the array's dtype, which is
            # the C cast; any other scalar type would promote
            if not (kind is float or kind is dtype.type
                    or (kind is int and -_EXACT_INT <= s <= _EXACT_INT)):
                return "strong-scalar"
            values.append(s)
        self.fn(*bases, *shape, *elements, *values)
        return None


# -- build and load ---------------------------------------------------------

def _count(n: int, **labels) -> None:
    from repro.obs import metrics
    metrics.get_registry().counter(
        "repro_native_kernels_total",
        help="Loop nests by how their plan's kernels were obtained "
             "(built by cc, loaded from the kernel directory) or why "
             "they run the ufunc tape instead; per-call fallbacks count "
             "once per call.",
    ).inc(n, **labels)


def _compile(cc: str, text: str, key: str) -> bytes:
    """One ``cc`` run in a private directory; the stored blob."""
    import subprocess
    from repro.obs import metrics
    global _CC_RUNS
    start = perf_counter()
    _CC_RUNS += 1
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        with open(os.path.join(tmp, "k.c"), "w") as f:
            f.write(text)
        subprocess.run([cc, *CC_FLAGS, "-o", "k.so", "k.c"], cwd=tmp,
                       stdin=subprocess.DEVNULL, capture_output=True,
                       timeout=BUILD_TIMEOUT_S, check=True)
        with open(os.path.join(tmp, "k.so"), "rb") as f:
            so = f.read()
    metrics.get_registry().histogram(
        "repro_native_build_seconds",
        help="Wall-clock seconds of one cc run (one translation unit "
             "per plan).",
    ).observe(perf_counter() - start)
    return so + hashlib.sha256(so).hexdigest().encode() + key.encode()


@cache
def _cc_version(cc: str) -> bytes:
    import subprocess
    return subprocess.run(
        [cc, "--version"], stdin=subprocess.DEVNULL, capture_output=True,
        timeout=BUILD_TIMEOUT_S, check=True).stdout


def _load(cc: str, text: str):
    """``(library, "built" | "loaded")`` for one translation unit, from
    the kernel directory when it holds this text's build by this
    compiler."""
    import ctypes
    key = hashlib.sha256(b"\0".join(
        (text.encode(), _cc_version(cc),
         " ".join(CC_FLAGS).encode()))).hexdigest()
    store, runs = kernel_store(), _CC_RUNS
    store.get_or_produce(key, lambda: _compile(cc, text, key),
                         accept=lambda blob: blob.endswith(key.encode()))
    return (ctypes.CDLL(str(store.file(key))),
            "loaded" if _CC_RUNS == runs else "built")


def build(tapes: list, dtypes, tracer=None) -> None:
    """Give every eligible tape of ``tapes`` (``(NestTape, rank)``
    pairs over arrays of ``dtypes``) its kernel: one translation unit,
    built or loaded once.  Never raises for a missing compiler or a
    failed build — the tapes simply keep running the ufuncs — and a
    compiler that failed once is not run again by this process."""
    from repro.obs.tracer import coalesce
    cc = shutil.which("cc")
    if cc is None or cc in _BROKEN:
        return _count(len(tapes), status="fallback",
                      reason="no-cc" if cc is None else "build-failed")
    units = []
    for i, (tape, rank) in enumerate(tapes):
        try:
            units.append((tape, *emit(tape, rank, dtypes, f"k{i}")))
        except _Ineligible as exc:
            _count(1, status="fallback", reason=exc.args[0])
    if not units:
        return
    import subprocess
    tracer = coalesce(tracer)
    with tracer.span("native-build", kind="runtime",
                     nests=len(units)) as span:
        try:
            lib, status = _load(
                cc, PRELUDE + "".join(text for _, text, _ in units))
        except (OSError, subprocess.SubprocessError) as exc:
            _BROKEN.add(cc)
            warnings.warn(
                f"native nest kernels unavailable ({exc!r:.300}); running "
                f"the ufunc tape instead (same results)", RuntimeWarning,
                stacklevel=2)
            return _count(len(units), status="fallback",
                          reason="build-failed")
        if tracer.enabled:
            span.attrs["status"] = status
    _count(len(units), status=status)
    for tape, _, layout in units:
        tape.kernel = Kernel(lib, layout)


def _points(plan, op) -> int:
    """Points of ``op``'s iteration space; a bound that is not a
    function of the size parameters counts as the array's extent."""
    points = 1
    shape = plan.arrays[op.statements[0].lhs].shape
    for (lo, hi), extent in zip(op.space, shape):
        try:
            extent = hi.evaluate(plan.params) - lo.evaluate(plan.params) + 1
        except SemanticError:
            pass
        points *= max(0, extent)
    return points


def attach(plan, nests: list, tracer=None) -> None:
    """:func:`build` for ``nests`` (``(LoopNestOp, NestTape)`` pairs of
    ``plan``) when the plan as a whole qualifies."""
    from repro.runtime.nest_tape import _VALUE_BASED_PROMOTION
    if _VALUE_BASED_PROMOTION:
        reason = "numpy1"
    elif max((_points(plan, op) for op, _ in nests), default=0) < MIN_POINTS:
        reason = "small"
    else:
        return build(
            [(tape, len(op.space)) for op, tape in nests],
            {name: decl.dtype for name, decl in plan.arrays.items()}, tracer)
    _count(len(nests), status="fallback", reason=reason)
