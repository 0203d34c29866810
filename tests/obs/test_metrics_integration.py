"""End-to-end instrumentation tests: every layer publishes its
cross-run counts into one registry — a run's costs stay on its reports
and its times on its spans — and the disabled path stays a no-op."""

from repro.compiler import OptLevel, PlanCache, compile_hpf
from repro.kernels import KERNELS, run_kernel
from repro.obs import Tracer, metrics as m
from repro.testing import (
    backend_equivalence_check, random_inputs,
    random_program,
)

FIVE_POINT = KERNELS["five_point"]


def instrumented_run(backend="perpe", registry=None, **kwargs):
    with m.use_registry(registry) as reg:
        result = run_kernel("five_point", grid=(2, 2),
                            bindings={"N": 8}, backend=backend,
                            **kwargs)
    return reg, result


class TestLayerCoverage:
    def test_compiler_phases(self):
        """Phase times are the spans'; the registry only counts."""
        tracer = Tracer()
        with m.use_registry() as reg:
            compile_hpf(FIVE_POINT.source, bindings={"N": 8},
                        outputs=set(FIVE_POINT.outputs), tracer=tracer)
        spans = {span.name for span in tracer.spans()}
        assert {"compile", "parse", "pass:normalize", "verify-coverage",
                "codegen", "verify-plan"} <= spans
        assert [x.name for x in reg.metrics()] == ["repro_compiles_total"]
        assert reg.get("repro_compiles_total").value(
            level=OptLevel.DEFAULT.name) == 1.0

    def test_plan_cache_events(self):
        cache = PlanCache()
        with m.use_registry() as reg:
            for _ in range(3):
                compile_hpf(FIVE_POINT.source, bindings={"N": 8},
                            outputs=set(FIVE_POINT.outputs),
                            cache=cache)
        c = reg.get("repro_cache_events_total")
        assert c.value(cache="plan-memory", event="miss") == 1.0
        assert c.value(cache="plan-memory", event="hit") == 2.0
        assert cache.stats.snapshot()["hits"] == 2.0

    def test_executor_series(self):
        """A run's cost is its report; the registry counts runs (and,
        through the compile, compilations and kernel outcomes)."""
        reg, result = instrumented_run("perpe", iterations=2)
        assert [x.name for x in reg.metrics()] == [
            "repro_compiles_total", "repro_exec_runs_total",
            "repro_native_kernels_total"]
        assert reg.get("repro_exec_runs_total") \
            .value(backend="perpe") == 1.0
        assert result.report.messages > 0

    def test_pinned_materialize_series(self):
        """The two series of the harness-pinned emitter: no run
        publishes them any more, a direct ``materialize`` still does."""
        from repro.codegen import current_options, lower_plan, materialize
        plan = compile_hpf(FIVE_POINT.source, bindings={"N": 8},
                           outputs=set(FIVE_POINT.outputs)).plan
        reg, _ = instrumented_run("vectorized")
        assert reg.get("repro_jit_materialize_seconds") is None
        assert reg.get("repro_codegen_nests_total") is None
        with m.use_registry() as reg:
            materialize(lower_plan(plan, current_options()).source,
                        "python")
        jit = reg.get("repro_jit_materialize_seconds")
        assert jit.value(mode="python")["count"] == 1
        nests = reg.get("repro_codegen_nests_total")
        assert nests.value(status="native") >= 1.0

    def test_parallel_series(self):
        from repro.testing import forced_stripes
        reg, _ = instrumented_run("parallel", workers=2)
        assert reg.get("repro_parallel_workers").value() == 2.0
        idle = reg.get("repro_parallel_barrier_wait_seconds")
        # a test-sized nest runs whole: worker 0 never waits at a join,
        # worker 1 is never handed a stripe and idles for the whole run
        assert idle.value(worker="0") == 0.0
        assert idle.value(worker="1") > 0.0
        nests = reg.get("repro_parallel_nests_total")
        assert nests.value(mode="whole", reason="small") >= 1.0
        assert nests.value(mode="striped") is None
        for retired in ("barrier_waits", "allreduce_rounds",
                        "bcast_checks", "liveness_polls",
                        "compiler_runs"):
            assert reg.get(f"repro_parallel_{retired}") is None
        with forced_stripes():
            reg, _ = instrumented_run("parallel", workers=2)
        assert reg.get("repro_parallel_nests_total").value(
            mode="striped") >= 1.0
        assert reg.get("repro_parallel_barrier_wait_seconds").value(
            worker="0") > 0.0


class TestZeroOverheadWhenDisabled:
    def test_null_registry_stays_empty(self):
        assert m.get_registry() is m.NULL_REGISTRY
        run_kernel("five_point", grid=(2, 2), bindings={"N": 8})
        assert m.get_registry().metrics() == []


class TestBackendInvariance:
    def test_equivalence_check_compares_metrics(self):
        """The check compares each backend's cost figures — report
        summary, per-PE rows, peak memory, message log, profile —
        directly, with no registry installed."""
        program = random_program(7)
        inputs = random_inputs(7, program)
        backend_equivalence_check(program, inputs, levels=("O4",))


class TestDescribeMetrics:
    def test_renders_every_family(self):
        from repro.analysis.report import describe_metrics
        reg, _ = instrumented_run("perpe")
        text = describe_metrics(reg)
        assert "repro_exec_runs_total [counter]" in text
        assert '{backend="perpe"}: 1' in text
        assert "Completed execute() calls by backend." in text
        assert describe_metrics(m.MetricsRegistry()) == \
            "no metrics recorded"
