"""The compiled backend's contract: bitwise identity with every other
backend on every observable, across the §3.4 transform space, plus the
jit modes and kernel-cache reuse.

These tests run the *generated* kernels under ``jit="python"`` — the
fused/tiled loops statement for statement.
"""

import numpy as np
import pytest

from repro.codegen import cache as kcache
from repro.codegen import codegen_options
from repro.compiler import compile_hpf
from repro.errors import UsageError
from repro.kernels import KERNELS, run_kernel
from repro.machine import Machine
from repro.runtime.backends import get_backend

SMALL_N = {"five_point": 12, "nine_point_cshift": 12, "nine_point": 12,
           "purdue9": 12, "twentyfive_point": 16, "seven_point_3d": 8,
           "box27_3d": 8, "jacobi": 12, "red_black": 12, "cg": 12}

JIT = "python"


def _run(name, backend, level="O4", grid=(2, 2), iterations=2,
         **codegen):
    machine = Machine(grid=grid, keep_message_log=True)
    if backend == "compiled":
        with codegen_options(jit=JIT, **codegen):
            res = run_kernel(name, bindings={"N": SMALL_N[name]},
                             level=level, backend=backend,
                             machine=machine, iterations=iterations,
                             seed=1, profile=True)
    else:
        res = run_kernel(name, bindings={"N": SMALL_N[name]},
                         level=level, backend=backend, machine=machine,
                         iterations=iterations, seed=1, profile=True)
    log = [(m.src, m.dst, m.nbytes, m.tag)
           for m in machine.network.log]
    return res, log


def _assert_identical(a, alog, b, blog, ctx=""):
    assert set(a.arrays) == set(b.arrays)
    for arr in a.arrays:
        np.testing.assert_array_equal(
            a.arrays[arr].view(np.uint8), b.arrays[arr].view(np.uint8),
            err_msg=f"{ctx} array {arr}")
    assert a.scalars == b.scalars, ctx
    assert a.report.summary() == b.report.summary(), ctx
    assert a.report.pe_times == b.report.pe_times, ctx
    assert a.report.pe_comm_times == b.report.pe_comm_times, ctx
    assert a.report.pe_copy_times == b.report.pe_copy_times, ctx
    assert a.peak_memory_per_pe == b.peak_memory_per_pe, ctx
    assert alog == blog, f"{ctx} message logs diverged"
    assert a.profile.matrix == b.profile.matrix, ctx
    assert a.profile.totals["messages_by_class"] == \
        b.profile.totals["messages_by_class"], ctx


class TestNamedKernels:
    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3", "O4"])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_bitwise_identical_to_perpe(self, name, level):
        a, alog = _run(name, "perpe", level=level)
        b, blog = _run(name, "compiled", level=level)
        _assert_identical(a, alog, b, blog, f"{name} {level}")

    @pytest.mark.parametrize("grid", [(4, 1), (1, 4), (3, 2)])
    def test_asymmetric_grids(self, grid):
        for name in ("nine_point", "purdue9", "seven_point_3d"):
            a, alog = _run(name, "vectorized", grid=grid)
            b, blog = _run(name, "compiled", grid=grid)
            _assert_identical(a, alog, b, blog, f"{name} {grid}")


class TestTransformSweep:
    """Tiling and unroll-and-jam reorder the *iteration* schedule, never
    the arithmetic: every factor combination must stay bitwise."""

    @pytest.mark.parametrize("tile,unroll",
                             [(0, 1), (3, 1), (8, 2), (5, 3), (16, 4)])
    @pytest.mark.parametrize("name", ["nine_point", "seven_point_3d"])
    def test_factors_bitwise(self, name, tile, unroll):
        a, alog = _run(name, "perpe")
        b, blog = _run(name, "compiled", tile=tile, unroll=unroll)
        _assert_identical(a, alog, b, blog,
                          f"{name} tile={tile} unroll={unroll}")

    def test_tile_larger_than_subgrid(self):
        a, alog = _run("five_point", "perpe")
        b, blog = _run("five_point", "compiled", tile=100, unroll=7)
        _assert_identical(a, alog, b, blog, "oversized factors")


class TestDegradation:
    def _plan(self):
        spec = KERNELS["five_point"]
        return compile_hpf(spec.source, bindings={"N": 12}, level="O2",
                           outputs=set(spec.outputs)).plan

    def test_auto_runs_slabs_without_a_warning(self):
        """``auto`` means "slabs" (whose nests the tape may run as cc
        kernels): no generated kernels, and nothing to warn about."""
        cls = get_backend("compiled")
        import warnings as _w
        with codegen_options(jit="auto"), _w.catch_warnings():
            _w.simplefilter("error")
            ex = cls(self._plan(), Machine(grid=(2, 2)), None, False)
        assert ex.jit_mode == "off"
        assert not ex._kernels

    def test_auto_without_numba_results_identical(self):
        a, alog = _run("nine_point", "vectorized")
        machine = Machine(grid=(2, 2), keep_message_log=True)
        with codegen_options(jit="auto"):
            b = run_kernel("nine_point", bindings={"N": 12}, level="O4",
                           backend="compiled", machine=machine,
                           iterations=2, seed=1, profile=True)
        blog = [(m.src, m.dst, m.nbytes, m.tag)
                for m in machine.network.log]
        _assert_identical(a, alog, b, blog, "slab degradation")

    def test_jit_numba_without_numba_raises(self):
        """Numba is not a dependency any more: the value is not a mode."""
        with pytest.raises(UsageError, match="auto/python/off"):
            with codegen_options(jit="numba"):
                pass

    def test_jit_off_runs_no_kernels(self):
        cls = get_backend("compiled")
        with codegen_options(jit="off"):
            ex = cls(self._plan(), Machine(grid=(2, 2)), None, False)
        assert ex.jit_mode == "off"
        assert not ex._kernels


class TestPerNestFallback:
    SRC = ("      REAL, DIMENSION(N,N) :: A, B, C\n"
           "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
           "!HPF$ ALIGN B WITH A\n"
           "!HPF$ ALIGN C WITH A\n"
           "      DO KK = 1, 2\n"
           "        B = LOG(A) * 0.5 + B\n"
           "      ENDDO\n"
           "      DO KK = 1, 2\n"
           "        C = 0.25 * CSHIFT(A, SHIFT=1, DIM=2)\n"
           "      ENDDO\n")

    def test_unloweable_nest_runs_as_slabs_rest_native(self):
        compiled = compile_hpf(self.SRC, bindings={"N": 12}, level="O0",
                               outputs={"B", "C"})
        rng = np.random.default_rng(5)
        inputs = {"A": rng.uniform(0.5, 2.0, (12, 12)).astype(
            np.float32)}
        results = {}
        for backend in ("perpe", "compiled"):
            machine = Machine(grid=(2, 2))
            with codegen_options(jit=JIT):
                results[backend] = compiled.run(
                    machine, inputs=inputs, backend=backend)
        a, b = results["perpe"], results["compiled"]
        for name in ("B", "C"):
            np.testing.assert_array_equal(a.arrays[name],
                                          b.arrays[name])
        assert a.report.summary() == b.report.summary()

    def test_kernel_for_reports_fallback(self):
        from repro.codegen.lower import plan_nests
        compiled = compile_hpf(self.SRC, bindings={"N": 12}, level="O0",
                               outputs={"B", "C"})
        cls = get_backend("compiled")
        with codegen_options(jit=JIT):
            ex = cls(compiled.plan, Machine(grid=(2, 2)), None, False)
        kernels = [ex.kernel_for(op)
                   for op in plan_nests(compiled.plan)]
        assert None in kernels, "LOG nest should have fallen back"
        assert any(k is not None for k in kernels), (
            "the CSHIFT nest should have lowered")


class TestKernelReuse:
    def test_in_process_cache_hits_on_second_run(self):
        kcache.MODULES.invalidate()
        h0 = kcache.MODULES.stats.hits
        _run("five_point", "compiled", level="O2", iterations=1)
        _run("five_point", "compiled", level="O2", iterations=1)
        assert kcache.MODULES.stats.hits > h0

    def test_disk_cache_round_trip(self, tmp_path):
        kcache.MODULES.invalidate()
        machine = Machine(grid=(2, 2))
        with codegen_options(jit=JIT, cache_dir=str(tmp_path)):
            a = run_kernel("five_point", bindings={"N": 12}, level="O2",
                           backend="compiled", machine=machine, seed=1)
        files = list(tmp_path.glob("*.py"))
        assert len(files) == 1, "kernel source not persisted"
        # a fresh process (modules cleared) must revive from disk and
        # produce identical results without re-lowering
        kcache.MODULES.invalidate()
        with codegen_options(jit=JIT, cache_dir=str(tmp_path)):
            b = run_kernel("five_point", bindings={"N": 12}, level="O2",
                           backend="compiled",
                           machine=Machine(grid=(2, 2)), seed=1)
        np.testing.assert_array_equal(a.arrays["DST"], b.arrays["DST"])
        assert len(list(tmp_path.glob("*.py"))) == 1
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("damage", [
        "def broken(:", "", "# another plan's kernels\nMANIFEST = "
        "{'version': 1, 'factors': {}, 'nests': []}\n"],
        ids=["syntax-error", "empty", "other-nest-count"])
    def test_damaged_source_file_is_relowered(self, tmp_path, damage):
        """A kernel file that does not compile, carries no MANIFEST or
        describes another plan's nests costs a re-lowering: the run
        succeeds and leaves a valid file behind."""
        def run():
            kcache.MODULES.invalidate()
            with codegen_options(jit="python", cache_dir=str(tmp_path)):
                return run_kernel(
                    "five_point", bindings={"N": 12}, level="O2",
                    backend="compiled", machine=Machine(grid=(2, 2)),
                    seed=1)

        good = run()
        file, = tmp_path.glob("*.py")
        text = file.read_text()
        file.write_text(damage)
        stats = kcache.source_store(tmp_path).stats
        before = stats.misses + stats.invalidations
        again = run()
        np.testing.assert_array_equal(good.arrays["DST"],
                                      again.arrays["DST"])
        assert stats.misses + stats.invalidations == before + 1
        assert file.read_text() == text
        assert not list(tmp_path.glob("*.tmp"))

    def test_factor_change_is_a_different_kernel(self, tmp_path):
        kcache.MODULES.invalidate()
        for unroll in (1, 2):
            with codegen_options(jit=JIT, unroll=unroll,
                                 cache_dir=str(tmp_path)):
                run_kernel("five_point", bindings={"N": 12}, level="O2",
                           backend="compiled",
                           machine=Machine(grid=(2, 2)), seed=1)
        assert len(list(tmp_path.glob("*.py"))) == 2


class TestCLI:
    @pytest.fixture
    def kernel_file(self, tmp_path):
        path = tmp_path / "k.f90"
        path.write_text(KERNELS["five_point"].source)
        return str(path)

    def test_run_backend_compiled(self, kernel_file, capsys):
        from repro.__main__ import main
        assert main(["run", kernel_file, "--bind", "N=12",
                     "--output", "DST", "--backend", "compiled",
                     "--jit", JIT, "--tile", "4", "--unroll", "2"]) == 0
        assert "DST" in capsys.readouterr().out

    def test_run_rejects_bad_workers(self, kernel_file):
        from repro.__main__ import main
        for bad in ("0", "-3", "two"):
            with pytest.raises(SystemExit) as exc:
                main(["run", kernel_file, "--bind", "N=12",
                      "--output", "DST", "--workers", bad])
            assert exc.value.code == 2

    def test_run_rejects_bad_tile(self, kernel_file, capsys):
        from repro.__main__ import main
        assert main(["run", kernel_file, "--bind", "N=12",
                     "--output", "DST", "--backend", "compiled",
                     "--tile", "-1"]) == 1
        assert "tile" in capsys.readouterr().err
