"""End-to-end instrumentation tests: every layer publishes into one
registry, the invariant series agree bitwise across all three backends,
and the disabled path stays a no-op."""

import pytest

from repro.compiler import OptLevel, PlanCache, compile_hpf
from repro.kernels import KERNELS, run_kernel
from repro.machine import Machine
from repro.obs import metrics as m
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
        with m.use_registry() as reg:
            compile_hpf(FIVE_POINT.source, bindings={"N": 8},
                        outputs=set(FIVE_POINT.outputs))
        hist = reg.get("repro_compile_phase_seconds")
        phases = {k[0][1] for k, _ in hist.samples()}
        assert {"parse", "passes", "codegen", "total"} <= phases
        assert not hist.deterministic
        assert reg.get("repro_compiles_total").value(
            level=OptLevel.DEFAULT.name) == 1.0
        ops = reg.get("repro_compile_plan_ops_total")
        assert ops.value(kind="loop_nest") >= 1.0

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
        reg, result = instrumented_run("perpe", iterations=2)
        events = reg.get("repro_exec_events_total")
        assert events.invariant
        assert events.value(event="messages") == result.report.messages
        assert events.value(event="loop_points") == \
            result.report.loop_points
        modelled = reg.get("repro_exec_modelled_seconds_total")
        assert modelled.value() == result.modelled_time
        wall = reg.get("repro_exec_wall_seconds")
        assert not wall.deterministic
        assert wall.value(backend="perpe")["count"] == 1
        assert reg.get("repro_exec_runs_total") \
            .value(backend="perpe") == 1.0
        nest = reg.get("repro_nest_wall_seconds")
        assert nest.value(backend="perpe", kernel="tape")["count"] > 0

    def test_vectorized_nest_label(self):
        reg, _ = instrumented_run("vectorized")
        nest = reg.get("repro_nest_wall_seconds")
        assert nest.value(backend="vectorized", kernel="tape")["count"] > 0

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
        assert not jit.deterministic
        assert jit.value(mode="python")["count"] == 1
        nests = reg.get("repro_codegen_nests_total")
        assert nests.value(status="native") >= 1.0

    def test_parallel_series(self):
        from repro.testing import forced_stripes
        reg, _ = instrumented_run("parallel", workers=2)
        assert reg.get("repro_parallel_workers").value() == 2.0
        idle = reg.get("repro_parallel_barrier_wait_seconds")
        assert not idle.deterministic and not idle.invariant
        # a test-sized nest runs whole: worker 0 never waits at a join,
        # worker 1 is never handed a stripe and idles for the whole run
        assert idle.value(worker="0") == 0.0
        assert idle.value(worker="1") > 0.0
        nests = reg.get("repro_parallel_nests_total")
        assert nests.deterministic and not nests.invariant
        assert nests.value(mode="whole", reason="small") >= 1.0
        assert nests.value(mode="striped") is None
        assert reg.get("repro_nest_wall_seconds").value(
            backend="parallel", kernel="tape")["count"] > 0
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

    def test_executor_caches_disabled_handle(self):
        from repro.plan import Plan
        from repro.runtime.executor import _Exec
        compiled = compile_hpf(FIVE_POINT.source, bindings={"N": 8},
                               outputs=set(FIVE_POINT.outputs))
        ex = _Exec(compiled.plan, Machine(grid=(2, 2)), None, True)
        assert ex._nest_wall is None  # hot loop skips timing entirely
        with m.use_registry():
            ex2 = _Exec(compiled.plan, Machine(grid=(2, 2)), None, True)
            assert ex2._nest_wall is not None


class TestBackendInvariance:
    def test_equivalence_check_compares_metrics(self):
        program = random_program(7)
        inputs = random_inputs(7, program)
        backend_equivalence_check(program, inputs, levels=("O4",))

    def test_divergent_invariant_metric_detected(self):
        """Seeding one backend's registry with a stray invariant series
        must trip the equivalence assertion."""
        program = random_program(7)
        inputs = random_inputs(7, program)

        class Poisoned(m.MetricsRegistry):
            count = 0

            def __init__(self):
                super().__init__()
                Poisoned.count += 1
                if Poisoned.count == 2:  # second backend in the sweep
                    self.counter("repro_poison_total",
                                 invariant=True).inc()

        orig = m.MetricsRegistry
        m.MetricsRegistry = Poisoned
        try:
            with pytest.raises(AssertionError,
                               match="invariant metric series"):
                backend_equivalence_check(program, inputs,
                                          levels=("O4",))
        finally:
            m.MetricsRegistry = orig


class TestDescribeMetrics:
    def test_renders_every_family(self):
        from repro.analysis.report import describe_metrics
        reg, _ = instrumented_run("perpe")
        text = describe_metrics(reg)
        assert "repro_exec_events_total" in text
        assert "backend-invariant" in text
        assert "wall-clock" in text
        assert describe_metrics(m.MetricsRegistry()) == \
            "no metrics recorded"
