"""Lowering unit tests: nest enumeration, generated-source shape, §3.4
transform structure, NEP-50 coercions, fallbacks, and the manifest
round trip."""

import numpy as np
import pytest

from repro.codegen import (
    CODEGEN_VERSION, CodegenOptions, lower_plan, materialize, plan_nests,
)
from repro.codegen.lower import manifest_nests
from repro.compiler import compile_hpf
from repro.errors import UsageError
from repro.kernels import KERNELS


def _plan(name="nine_point", level="O4", n=16):
    spec = KERNELS[name]
    return compile_hpf(spec.source, bindings={"N": n}, level=level,
                       outputs=set(spec.outputs)).plan


def _compile_src(source, outputs, n=8, level="O4"):
    return compile_hpf(source, bindings={"N": n}, level=level,
                       outputs=outputs).plan


class TestPlanNests:
    def test_enumerates_nests_in_walk_order(self):
        plan = _plan()
        nests = plan_nests(plan)
        assert nests, "nine_point plan has no loop nests?"
        walk = [op for op in plan.walk_ops()
                if type(op).__name__ == "LoopNestOp"]
        assert nests == walk

    def test_finds_nests_inside_overlapped_regions(self):
        # O4 overlaps communication with the interior nest; the nest
        # must still be enumerated (it is a child of OverlappedOp)
        plan = _plan(level="O4")
        o0 = _plan(level="O0")
        assert len(plan_nests(plan)) >= 1
        assert len(plan_nests(o0)) >= 1


class TestGeneratedSource:
    def test_module_shape(self):
        lp = lower_plan(_plan(), CodegenOptions())
        assert lp.source.startswith("# Generated by repro.codegen")
        assert "import numpy as np" in lp.source
        assert "MANIFEST = {" in lp.source
        assert all(n.mode in ("fused", "fission", "fallback")
                   for n in lp.nests)

    def test_innermost_dimension_is_innermost_loop(self):
        lp = lower_plan(_plan(), CodegenOptions())
        src = lp.source
        # dim 0 loop must open before dim 1 loop (outermost first, so
        # the C-contiguous last dimension is the innermost loop)
        assert src.index("for i0 in range") < src.index("for i1 in range")

    def test_tiling_structure(self):
        lp = lower_plan(_plan(), CodegenOptions(tile=8))
        src = lp.source
        assert "for t0 in range(lo0, hi0 + 1, 8):" in src
        assert "e0 = min(t0 + 7, hi0)" in src
        # the innermost dimension is never tiled
        assert "for t1 in range" not in src

    def test_unroll_and_jam_structure(self):
        lp = lower_plan(_plan(), CodegenOptions(unroll=2))
        src = lp.source
        assert "u_n = " in src and "u_end = " in src
        assert "for i0 in range(lo0, u_end, 2):" in src
        # remainder loop follows the jammed main loop
        assert "for i0 in range(u_end, hi0 + 1):" in src

    def test_scalar_replacement_loads_once(self):
        # nine_point reads each neighbor once per point but the jammed
        # bodies of unroll=2 share loads across rows: the number of
        # loads must be below 2x the single-body count
        single = lower_plan(_plan(), CodegenOptions(unroll=1)).source
        jammed = lower_plan(_plan(), CodegenOptions(unroll=2)).source

        def loads(src):
            return sum(1 for line in src.splitlines()
                       if "[" in line and " = a" in line)

        main_body = jammed.split("for i0 in range(u_end")[0]
        assert loads(main_body) < 2 * loads(single)

    def test_unroll_zero_uses_plan_factor(self):
        plan = _plan(level="O4")
        nests = plan_nests(plan)
        lp = lower_plan(plan, CodegenOptions(unroll=0))
        src = lp.source
        for op in nests:
            if op.unroll_jam > 1:
                assert f"unroll={op.unroll_jam}" in src

    def test_float32_coercion_emitted(self):
        # nine_point arrays are REAL (float32): python-float constants
        # must round through f32() before the arithmetic
        lp = lower_plan(_plan(), CodegenOptions())
        assert "f32(" in lp.source


class TestFallbacks:
    def test_exp_falls_back(self):
        plan = _compile_src(
            "      REAL, DIMENSION(N,N) :: A, B\n"
            "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
            "!HPF$ ALIGN B WITH A\n"
            "      B = EXP(A) + CSHIFT(A, SHIFT=1, DIM=1)\n",
            {"B"})
        lp = lower_plan(plan, CodegenOptions())
        fallen = [n for n in lp.nests if n.mode == "fallback"]
        assert fallen
        assert "EXP" in fallen[0].fallback_reason
        assert fallen[0].fn_name is None

    def test_fallback_is_per_nest_not_per_plan(self):
        plan = _compile_src(
            "      REAL, DIMENSION(N,N) :: A, B, C\n"
            "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
            "!HPF$ ALIGN B WITH A\n"
            "!HPF$ ALIGN C WITH A\n"
            "      DO KK = 1, 2\n"
            "        B = LOG(A) * 0.5\n"
            "      ENDDO\n"
            "      DO KK = 1, 2\n"
            "        C = 0.25 * CSHIFT(A, SHIFT=1, DIM=2)\n"
            "      ENDDO\n",
            {"B", "C"}, level="O0")
        lp = lower_plan(plan, CodegenOptions())
        modes = {n.mode for n in lp.nests}
        assert "fallback" in modes, lp.nests
        assert modes - {"fallback"}, (
            "expected at least one lowered nest next to the fallback")

    def test_fallback_module_still_materializes(self):
        plan = _compile_src(
            "      REAL, DIMENSION(N,N) :: A, B\n"
            "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
            "!HPF$ ALIGN B WITH A\n"
            "      B = EXP(A)\n",
            {"B"})
        lp = lower_plan(plan, CodegenOptions())
        module = materialize(lp.source, "python")
        assert [e.fn for e in module.entries].count(None) >= 1


class TestManifestRoundTrip:
    def test_exec_and_rebuild(self):
        lp = lower_plan(_plan(), CodegenOptions(tile=4, unroll=2))
        namespace = {"np": np}
        exec(compile(lp.source, "<test>", "exec"), namespace)
        manifest = namespace["MANIFEST"]
        assert manifest["version"] == CODEGEN_VERSION
        assert manifest["factors"] == {"tile": 4, "unroll": 2}
        assert manifest_nests(manifest) == lp.nests

    def test_materialize_python_mode(self):
        lp = lower_plan(_plan(), CodegenOptions())
        module = materialize(lp.source, "python")
        assert module.jit == "python"
        assert len(module.entries) == len(lp.nests)
        for entry, nest in zip(module.entries, lp.nests):
            assert entry.nest == nest
            assert (entry.fn is None) == (nest.fn_name is None)
            assert entry.arrays == nest.arrays
            assert entry.scalars == nest.scalars


class TestOptionsValidation:
    def test_negative_tile_rejected(self):
        with pytest.raises(UsageError, match="tile"):
            CodegenOptions(tile=-1).validated()

    def test_negative_unroll_rejected(self):
        with pytest.raises(UsageError, match="unroll"):
            CodegenOptions(unroll=-2).validated()

    def test_env_defaults(self, monkeypatch):
        """Nothing sets the factors any more: the variables earlier
        commits read are ignored, garbage included."""
        from repro.codegen.options import current_options
        monkeypatch.setenv("REPRO_COMPILED_TILE", "lots")
        monkeypatch.setenv("REPRO_COMPILED_UNROLL", "4")
        monkeypatch.setenv("REPRO_COMPILED_JIT", "python")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "/x")
        assert current_options() == CodegenOptions() == \
            CodegenOptions(tile=0, unroll=0)
        with pytest.raises(TypeError):
            CodegenOptions(jit="python")


class TestGeneratedLoopsRun:
    """No backend runs the generated loops any more; the lowerer is
    pinned by the benchmark harness, so its output is still executed
    here: each nest function on the slabs of a one-PE ``vectorized``
    run, in place of that run's tape."""

    @pytest.mark.parametrize("tile,unroll", [(0, 0), (8, 2)])
    @pytest.mark.parametrize("name", ["five_point", "nine_point"])
    def test_bitwise_equal_to_vectorized_on_one_pe(
            self, name, tile, unroll, monkeypatch):
        from repro.machine import Machine
        from repro.runtime.executor import _Exec
        spec = KERNELS[name]
        compiled = compile_hpf(spec.source, bindings={"N": 16},
                               level="O4", outputs=set(spec.outputs))
        module = materialize(lower_plan(
            compiled.plan, CodegenOptions(tile, unroll)).source, "python")
        entries = {id(op): entry for op, entry in zip(
            plan_nests(compiled.plan), module.entries, strict=True)}
        assert all(entry.fn is not None for entry in entries.values())
        inputs = {"SRC": np.random.default_rng(3).standard_normal(
            (16, 16)).astype(np.float32)}
        scalars = {c: 0.5 + i for i, c in enumerate(
            sorted(compiled.plan.scalar_names))}

        def run():
            return compiled.run(Machine(grid=(1, 1)), inputs=inputs,
                                scalars=scalars, backend="vectorized")

        def generated(self, op, space, sched):
            # the argument order the MANIFEST records: per array its
            # slab and index bases, then scalars, then the box bounds —
            # here the whole space, on the one slab
            entry, args, box, pe = entries[id(op)], [], space, 0
            for array in entry.arrays:
                slab = self.darray(array)
                args.append(slab.padded(pe))
                args += [lo - origin for (lo, _), origin
                         in zip(slab.halo, slab.origin(pe))]
            args += [self.scalars[s] for s in entry.scalars]
            args += [int(bound) for lo_hi in box for bound in lo_hi]
            entry.fn(*args)
            ran.append(op)

        want, ran = run(), []
        monkeypatch.setattr(_Exec, "_eval_nest", generated)
        got = run()
        assert len(ran) == len(entries)
        for array, value in want.arrays.items():
            assert value.any()
            np.testing.assert_array_equal(
                got.arrays[array].view(np.uint8), value.view(np.uint8))
