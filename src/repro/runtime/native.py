"""Native nest kernels: a tape's nest as one ``cc``-compiled fused loop.

Scalarization and fusion leave "a single subgrid loop nest" for a node
compiler to optimize (paper section 3.4); this module hands it one.
From a :class:`~repro.runtime.nest_tape.NestTape`'s instruction list it
emits per nest a C box function — loops over the box, innermost
dimension contiguous, one ``restrict`` base pointer parameter and row
strides per *array* (every storage keeps one buffer per array name),
one element offset per reference, each arithmetic instruction one
statement in the array dtype, stores in statement order — and one entry
point, ``k<i>(nreg, base, off, ints, d)``, calling the box per row of a
region table of byte offsets from the buffers' bases — the one way a
kernel runs: from Python as rows of a :meth:`Kernel.table` through
:meth:`Kernel.run_table` (a ``perpe`` nest's PE boxes, a slab nest's
row stripes), from C through ``run_steps``, the :data:`PRELUDE`'s
driver of a run's segment — nests, overlap moves, swaps, SUM
reductions and scalar assignments, for all trips of a loop — in one
call.  A reduction operand's loop stores its value into the caller's
stack, or a SUM's into a block-sized scratch that each row then sums in
NumPy's pairwise order into its partial.  One translation unit per plan
is built with the system ``cc``, kept in a content-addressed
:mod:`repro.store` directory and called through ``ctypes``.  Scalar-only
subtrees reach a kernel by value: computed in Python on the per-op path,
inside a segment by the driver's program steps over the run's scalar
file.  So the text depends on nest structure only and is drawn from a
closed grammar (positional names, a fixed operator table, no identifier
or literal of a submitted program).

Why ``-O3`` keeps NumPy's bits: without ``-ffast-math`` and with
``-ffp-contract=off`` the compiler may neither reassociate nor fuse a
multiply into an add, so each point's value is computed by the same
IEEE operations in the same order as the ufunc tape computes it;
vectorization reorders work *across* points, never within one, and the
vector width of the clone the loader picks (``vec_clones``: AVX-512,
AVX2 or baseline) sets only how many points one instruction covers.

Selection is by what the code can observe, never by an option.  Per
plan: NumPy 2 promotion, an iteration space of at least
:data:`MIN_POINTS`, a ``cc`` on the path, a build that succeeds.  Per
nest or reduction operand, statically: no mask, only ``+ - * /`` and
unary minus on arrays, arrays all ``float32`` or all ``float64``, no
assigned array read at a nonzero offset.  Per table: views of that
dtype with unit inner stride and aligned addresses (every region of a
table is a view of the same arenas with the same strides, so one
region's reason refuses the table); per call, scalars that are weak
(Python ``float``/``int``) or of the array dtype.  Anything else runs
the ufunc tape, counted in ``repro_native_kernels_total`` by reason —
a refused table or scalar once per evaluation of its nest.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import stat
import tempfile
import warnings
from functools import cache
from math import prod
from time import perf_counter

import numpy as np

from repro.errors import SemanticError
from repro.store import Codec, DiskStore, shared_disk_store

#: No ``-march``: a kernel file is shared by every process of this user
#: on this host, whatever CPU flags a container exposes; each box carries
#: its ISA clones instead, one picked per process (``vec_clones``).
CC_FLAGS = ("-O3", "-fno-fast-math", "-ffp-contract=off", "-shared",
            "-fPIC")

#: Plans whose largest nest covers fewer points stay on the ufunc tape
#: and never look for a compiler.  A cold build is 0.2-0.7 s (``cc -O3``
#: of a plan's unit, three clones per box) plus ~5 ms per process to
#: load; the tape is ~2.5 ms per sweep slower at 2**16 points, so a plan
#: this small needs a hundred sweeps to repay a build and a test-sized
#: one never does.
MIN_POINTS = 1 << 16

#: Seconds one ``cc`` run may take before the plan falls back.
BUILD_TIMEOUT_S = 60.0

_CTYPE = {np.dtype(np.float32): "float", np.dtype(np.float64): "double"}
#: ``vec_clones`` prefixes every box: on x86-64 glibc (``<time.h>``, first,
#: defines ``__GLIBC__``) AVX-512, AVX2 and baseline clones, of which the
#: loader's IFUNC resolver picks one per ``dlopen``; elsewhere nothing.  A
#: ``-Dvec_clones=...`` flag wins.
PRELUDE = """\
#include <time.h>
#if !defined(vec_clones) && defined(__x86_64__) && defined(__GLIBC__) \\
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define vec_clones __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef vec_clones
#define vec_clones
#endif
"""
#: Unary minus flips the sign bit and nothing else, NaNs included, as
#: ``np.negative`` does; written as the bit operation so the compiler
#: cannot fold ``a + (-b)`` into ``a - b``, which answers a NaN ``b``
#: with the other sign.
PRELUDE += "".join(
    f"static inline {real} neg_{real}({real} x) {{ union {{ {real} f; "
    f"{bits} u; }} v = {{ x }}; v.u ^= ({bits})1 << {n}; return v.f; }}\n"
    for real, bits, n in (("float", "unsigned", 31),
                          ("double", "unsigned long long", 63)))
#: A SUM operand's partial, NumPy's pairwise summation in the array
#: dtype: under 8 values in sequence; up to 128 in eight stride-8
#: accumulators (seeded with the first eight) combined as a tree, then
#: the tail; above, split at ``n/2`` less its remainder mod 8.  Each row
#: of ``np.add.reduce(rows, axis=1)`` is ``+0.0 + pw(row)``.
PRELUDE += "".join(f"""\
static {real} pw_{real}(const {real} *a, long long n)
{{
  {real} r[8], res = 0;
  long long i = 0, h = n / 2 - n / 2 % 8;
  if (n > 128) return pw_{real}(a, h) + pw_{real}(a + h, n - h);
  if (n >= 8) {{
    for (; i < 8; i++) r[i] = a[i];
    for (; i < n - n % 8; i += 8)
      for (int j = 0; j < 8; j++) r[j] += a[i + j];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
  }}
  for (; i < n; i++) res += a[i];
  return res;
}}
""" for real in ("float", "double"))
#: The segment driver (``executor._Segment``): ``trips`` walks of a step
#: table over buffer slots and a scalar file ``d``.  A nest step calls its
#: entry point on its region table, slots as bases, arguments at ``d +
#: s[5]``; a SUM step's last base takes the partials, folded into ``d`` in
#: rank order as ``executor._reduce`` folds them; a move step is
#: ``DArray.fill_overlap``: its ``(dst, src, edge)`` arena indices, each
#: edge cell given the fill value's bytes in the step; a swap step
#: exchanges two slots; a program step runs ``(opcode, dst, a, b)`` over
#: ``d``, a named scalar stored last: a zero divisor returns ``trip *
#: nsteps +`` the step's position.  A traced run passes ``stamps``, which
#: take ``CLOCK_MONOTONIC`` at entry and after every step (untraced, NULL:
#: one test per step).
PRELUDE += """\
static double *tick(double *at)
{
  struct timespec ts;
  if (at)
    clock_gettime(CLOCK_MONOTONIC, &ts),
      *at++ = ts.tv_sec + 1e-9 * ts.tv_nsec;
  return at;
}
typedef void (*entry_t)(long long, const long long *, const long long *,
                        const long long *, const double *);
static void move(char *buf, const long long *s)
{
  const long long *to = (const long long *)s[4], *from = (const long long *)s[5],
                  *edge = (const long long *)s[7];
  for (long long i = 0; i < s[3]; i++)
    if (s[2] == 4) __builtin_memcpy(buf + 4 * to[i], buf + 4 * from[i], 4);
    else __builtin_memcpy(buf + 8 * to[i], buf + 8 * from[i], 8);
  for (long long i = 0; i < s[6]; i++)
    if (s[2] == 4) __builtin_memcpy(buf + 4 * edge[i], s + 8, 4);
    else __builtin_memcpy(buf + 8 * edge[i], s + 8, 8);
}
long long run_steps(long long trips, long long nsteps, const long long *steps,
                    long long *bufs, double *d, double *stamps)
{
  stamps = tick(stamps);
  for (long long t = 0; t < trips; t++)
    for (const long long *s = steps, *end = s; s < steps + nsteps;
         s = end, stamps = tick(stamps))
      if (s[0] == 0 || s[0] == 4) {
        long long base[s[6]];
        for (long long g = 0; g < s[6]; g++) base[g] = bufs[s[7 + g]];
        ((entry_t)s[1])(s[2], base, (const long long *)s[3],
                        (const long long *)s[4], d + s[5]);
        end = s + 7 + s[6];
        if (s[0] == 4) {
          const char *p = (const char *)base[s[6] - 1];
          double sum = 0;
          for (long long r = 0; r < s[2]; r++) {
            double x = end[1] == 4 ? ((const float *)p)[r]
                                   : ((const double *)p)[r];
            sum = r ? sum + x : x;
          }
          d[end[0]] = sum, end += 2;
        }
      } else if (s[0] == 1) {
        move((char *)bufs[s[1]], s), end = s + 9;
      } else if (s[0] == 2) {
        long long x = bufs[s[1]];
        bufs[s[1]] = bufs[s[2]], bufs[s[2]] = x, end = s + 3;
      } else {
        for (end = s + 2; end < s + 2 + 4 * s[1]; end += 4) {
          double a = d[end[2]], b = d[end[3]];
          if (end[0] == 4 && b == 0)
            return t * nsteps + (s - steps);
          d[end[1]] = end[0] == 0 ? a : end[0] == 1 ? a + b
            : end[0] == 2 ? a - b : end[0] == 3 ? a * b
            : end[0] == 4 ? a / b : neg_double(a);
        }
      }
  return -1;
}
"""
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


def emit(tape, rank: int, dtypes, name: str, sums: bool = False):
    """``(C text, call layout)`` of ``tape``'s nest as function ``name``;
    ``dtypes`` maps array name -> dtype; a reduction operand stores into
    one more array, the caller's stack — with ``sums``, a SUM's: a
    block-sized scratch, whose pairwise sum each row then stores into
    its partial (``base`` has one more entry).  Raises
    :class:`_Ineligible`."""
    stmts, refs = tape.stmts, list(tape.refs)
    nrefs = len(refs)       # slots below this are array references
    if stmts[-1].dst is None:
        refs.append((None, (0,) * rank))
    if any(s.mask is not None for s in stmts):
        raise _Ineligible("mask")
    kinds = {np.dtype(dtypes[array]) for array, _ in refs if array}
    if len(kinds) != 1 or not kinds <= set(_CTYPE):
        raise _Ineligible("dtype")
    dtype, = kinds
    stores = [nrefs if s.dst is None else s.dst for s in stmts]
    assigned = {refs[j][0] for j in stores}
    if any(array in assigned and any(offsets) for array, offsets in refs):
        raise _Ineligible("offset-read-of-assigned")
    arrays = list(dict.fromkeys(array for array, _ in refs))
    array_of = [arrays.index(array) for array, _ in refs]
    real = _CTYPE[dtype]
    row = f"b{{0}}_{rank - 2} + " if rank > 1 else ""
    is_array = set(range(nrefs))
    scalar_args: dict[int, int] = {}    # slot -> its ``d``/``c`` index
    scalar_code, body = [], []

    def element(j: int) -> str:
        k = array_of[j]
        return f"a{k}[{row.format(k)}o{j} + i{rank - 1}]"

    def operand(slot: int) -> str:
        if slot < nrefs:
            return element(slot)
        if slot in is_array:
            return f"t{slot}"
        return f"c{scalar_args.setdefault(slot, len(scalar_args))}"

    for stmt, store in zip(stmts, stores):
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
        body.append(f"{element(store)} = {operand(stmt.value)};")

    pointers = [f"{'' if array in assigned else 'const '}{real} *"
                for array in arrays]
    params = [f"{p}restrict a{k}" for k, p in enumerate(pointers)]
    params += [f"long long n{d}" for d in range(rank)]
    params += [f"long long s{k}_{d}" for k in range(len(arrays))
               for d in range(rank - 1)]
    params += [f"long long o{j}" for j in range(len(refs))]
    params += [f"double d{m}" for m in range(len(scalar_args))]
    lines = [f"vec_clones static void {name}_box({', '.join(params)})", "{"]
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
    # the entry point: per table row, each array's byte offset from its
    # buffer's base address, then the box's ints
    nints = len(params) - len(arrays) - len(scalar_args)
    args = [f"({p})(base[{k}] + off[{k}])" for k, p in enumerate(pointers)]
    args += [f"ints[{i}]" for i in range(nints)]
    args += [f"d[{m}]" for m in range(len(scalar_args))]
    last = len(arrays)
    call = [f"    {name}_box({', '.join(args)});"]
    if sums:
        points = " * ".join(f"ints[{i}]" for i in range(rank))
        call = ["    {", call[0], f"    (({real} *)base[{last}])[r] = "
                f"({real})0 + pw_{real}((const {real} *)(base[{last - 1}] "
                f"+ off[{last - 1}]), {points});", "    }"]
    lines += [f"void {name}(long long nreg, const long long *base, "
              f"const long long *off, const long long *ints, "
              f"const double *d)", "{",
              f"  for (long long r = 0; r < nreg; r++, "
              f"off += {last}, ints += {nints})", *call, "}"]
    groups = [[(j, refs[j][1]) for j, k in enumerate(array_of) if k == g]
              for g in range(len(arrays))]
    return "\n".join(lines) + "\n", (
        name, dtype, rank, groups, nrefs, scalar_code, list(scalar_args),
        tape.tail, sums)


class Kernel:
    """One nest's loaded function and what a call must marshal; it runs
    only as rows of a region table (:meth:`table`, :meth:`run_table`)."""

    def __init__(self, lib, layout) -> None:
        import ctypes
        name, self.dtype, self.rank, self.groups, nrefs, \
            self.scalar_code, self.scalar_slots, self.tail, self.sums = layout
        self._lib = lib         # the function pointer does not hold it
        self.fn = getattr(lib, name)
        self.fn.restype = None
        # regions; buffers; their offsets; extents, strides...; scalars
        self.fn.argtypes = [ctypes.c_longlong] + [ctypes.c_void_p] * 4
        #: the entry point's address, for a segment's step table
        self.entry = ctypes.cast(self.fn, ctypes.c_void_p).value
        self._long, self._double = ctypes.c_longlong, ctypes.c_double
        #: the slot list's array part, for the scalar code
        self._refs = [None] * nrefs

    def table(self, boxes: list, arrays: list) -> "tuple | str":
        """Boxes (each box's views over ``arrays``, one per reference — a
        reduction's stack last — each with one buffer ``arena =
        (address, bytes)``) as one table of offsets into the arenas, so
        it serves every run of them; or the first box's reason to stay
        on the tape.  Every box is a view of the same arenas with the
        same strides, so a reason refuses them all."""
        arenas = [arrays[refs[0][0]].arena for refs in self.groups]
        offsets, ints, key = [], [], None
        for views in boxes:
            row = self._row(views)
            if row.__class__ is str:
                return row
            bases, shape, steps = row
            if steps != key:    # derived once per stride set, not per box
                key, elements = steps, self._elements(steps)
            at = [a - base for a, (base, _) in zip(bases, arenas)]
            if elements.__class__ is str or not all(
                    0 <= o < n for o, (_, n) in zip(at, arenas)):
                return "stride"
            offsets.append(at)
            ints.append((*shape, *elements))
        held = [np.array(rows, np.int64) for rows in (offsets, ints)]
        # their addresses, taken once, beside the arrays that hold them
        return len(boxes), *(a.ctypes.data for a in held), held

    def arguments(self, table: "tuple | str", scalars: list):
        """The scalar arguments of a call over ``table``, or ``None``
        when the table or a scalar is refused — counted once, by
        reason: the tape runs its regions."""
        values = table if table.__class__ is str else self.values(scalars)
        if values.__class__ is str:
            _count(1, status="fallback", reason=values)
            return None
        return values

    def run_table(self, table: tuple, arrays: list, values, start: int = 0,
                  stop: "int | None" = None, out=None) -> None:
        """One call over rows ``start:stop`` of ``table`` for this run's
        ``arrays`` with the scalar arguments ``values``
        (:meth:`arguments`); a SUM operand's: each row's partial into
        ``out``."""
        nreg, offsets, ints, (rows, extents) = table
        bases = [arrays[refs[0][0]].arena[0] for refs in self.groups]
        if out is not None:
            bases.append(out.ctypes.data)
        self.fn((nreg if stop is None else stop) - start,
                (self._long * len(bases))(*bases),
                offsets + start * rows.strides[0],
                ints + start * extents.strides[0], values)

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

    def _row(self, views: list) -> "tuple | str":
        """One box's ``(addresses, shape, byte strides)``, or the reason
        it cannot be proven bitwise or memory-safe.  One address is taken
        per array (its first reference's view, bounds-checked by NumPy);
        every other reference must be a view of the same buffer with the
        same shape and strides, which the loop displaces by the
        reference's static offset."""
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
        if any(b % dtype.itemsize for b in bases):
            return "stride"
        return bases, shape, key

    def values(self, scalars: list):
        """The scalar arguments as a C ``double`` array, or
        ``strong-scalar``."""
        vals = self._refs + scalars + self.tail
        for fn, args, dst in self.scalar_code:
            vals[dst] = fn(*[vals[a] for a in args])
        values = []
        for slot in self.scalar_slots:
            s = vals[slot]
            kind = type(s)
            # NEP 50: a Python number takes the array's dtype, which is
            # the C cast; any other scalar type would promote
            if not (kind is float or kind is self.dtype.type
                    or (kind is int and -_EXACT_INT <= s <= _EXACT_INT)):
                return "strong-scalar"
            values.append(s)
        return (self._double * len(values))(*values)


# -- build and load ---------------------------------------------------------

def _count(n: int, **labels) -> None:
    from repro.obs import metrics
    metrics.get_registry().counter(
        "repro_native_kernels_total",
        help="Loop nests by how their plan's kernels were obtained "
             "(built by cc, loaded from the kernel directory) or why "
             "they run the ufunc tape instead; a refused table or scalar "
             "counts once per evaluation of its nest.",
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


def build(tapes: list, dtypes, tracer=None):
    """Give every eligible tape of ``tapes`` (``(NestTape, rank)``
    pairs over arrays of ``dtypes``; ``(NestTape, rank, True)`` for a
    SUM operand) its kernel: one translation unit, built or loaded
    once; returns its segment driver, ``run_steps``.  Never raises for a
    missing compiler or a failed build — the tapes simply keep running
    the ufuncs — and a compiler that failed once is not run again by
    this process."""
    import ctypes
    from repro.obs.tracer import coalesce
    cc = shutil.which("cc")
    if cc is None or cc in _BROKEN:
        return _count(len(tapes), status="fallback",
                      reason="no-cc" if cc is None else "build-failed")
    units = []
    for i, (tape, rank, *sums) in enumerate(tapes):
        try:
            units.append((tape, *emit(tape, rank, dtypes, f"k{i}", *sums)))
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
    driver = lib.run_steps
    driver.restype = ctypes.c_longlong
    # trips, steps; step table, buffer slots, scalar file, stamps
    driver.argtypes = [ctypes.c_longlong] * 2 + [ctypes.c_void_p] * 4
    return driver


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


def attach(plan, nests: list, reductions: list, tracer=None):
    """:func:`build` for ``nests`` (``(LoopNestOp, NestTape)`` pairs of
    ``plan``) and ``reductions`` (``(NestTape, array shape, is a SUM)``:
    an operand covers its array) when the plan as a whole qualifies;
    the plan's segment driver, if one was built."""
    from repro.runtime.nest_tape import _VALUE_BASED_PROMOTION
    units = [(tape, len(op.space), _points(plan, op)) for op, tape in nests]
    units += [(tape, len(shape), prod(shape), sums)
              for tape, shape, sums in reductions]
    if _VALUE_BASED_PROMOTION:
        reason = "numpy1"
    elif max((unit[2] for unit in units), default=0) < MIN_POINTS:
        reason = "small"
    else:
        return build([(tape, rank, *sums) for tape, rank, _, *sums in units],
                     {name: decl.dtype for name, decl in plan.arrays.items()},
                     tracer)
    _count(len(units), status="fallback", reason=reason)
