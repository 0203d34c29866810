"""Plan-cache behaviour: keys, hits, LRU eviction, invalidation,
tracer surfacing, and equivalence of cached results."""

import numpy as np
import pytest

from repro.compiler import PlanCache, cache_key, compile_hpf
from repro.compiler.options import CompilerOptions
from repro.kernels import KERNELS, compile_kernel
from repro.machine import Machine
from repro.obs import Tracer

SPEC = KERNELS["purdue9"]


def _compile(cache, bindings=None, level="O4", **options):
    return compile_hpf(SPEC.source, bindings=bindings or {"N": 16},
                       level=level, outputs=set(SPEC.outputs),
                       cache=cache, **options)


class TestHitsAndMisses:
    def test_hit_returns_same_object(self):
        cache = PlanCache()
        first = _compile(cache)
        second = _compile(cache)
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_no_cache_recompiles(self):
        assert _compile(None) is not _compile(None)

    def test_distinct_bindings_miss(self):
        cache = PlanCache()
        assert _compile(cache) is not _compile(cache,
                                               bindings={"N": 32})

    def test_distinct_level_miss(self):
        cache = PlanCache()
        assert _compile(cache, level="O2") is not _compile(cache,
                                                           level="O4")

    def test_distinct_option_miss(self):
        cache = PlanCache()
        assert _compile(cache) is not _compile(cache, unroll_jam=4)

    def test_binding_order_insensitive(self):
        src = SPEC.source.replace("DIMENSION(N,N)", "DIMENSION(N,M)")
        cache = PlanCache()
        a = compile_hpf(src, bindings={"N": 16, "M": 12},
                        outputs=set(SPEC.outputs), cache=cache)
        b = compile_hpf(src, bindings={"M": 12, "N": 16},
                        outputs=set(SPEC.outputs), cache=cache)
        assert a is b

    def test_cached_program_runs_identically(self):
        cache = PlanCache()
        cold = _compile(cache)
        warm = _compile(cache)
        results = []
        for prog in (cold, warm):
            machine = Machine(grid=(2, 2))
            rng = np.random.default_rng(3)
            inputs = {"U": rng.standard_normal((16, 16))}
            results.append(prog.run(machine, inputs=inputs))
        np.testing.assert_array_equal(results[0].arrays["T"],
                                      results[1].arrays["T"])
        assert (results[0].report.summary()
                == results[1].report.summary())


class TestInvalidation:
    def test_invalidate_all(self):
        cache = PlanCache()
        first = _compile(cache)
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert _compile(cache) is not first

    def test_invalidate_one_key(self):
        cache = PlanCache()
        _compile(cache)
        key = cache_key(SPEC.source, "MAIN", {"N": 16},
                        CompilerOptions.make("O4", set(SPEC.outputs)))
        assert cache.invalidate(key) == 1
        assert cache.invalidate(key) == 0  # already gone

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        a = _compile(cache, bindings={"N": 8})
        _compile(cache, bindings={"N": 12})
        _compile(cache, bindings={"N": 16})  # evicts N=8
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert _compile(cache, bindings={"N": 8}) is not a

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestSurfacing:
    def test_tracer_spans_carry_counters(self):
        cache = PlanCache()
        tr_miss, tr_hit = Tracer(), Tracer()
        _compile(cache, tracer=tr_miss)
        _compile(cache, tracer=tr_hit)
        miss = tr_miss.find("plan-cache")
        hit = tr_hit.find("plan-cache")
        assert miss.attrs["result"] == "miss"
        assert hit.attrs["result"] == "hit"
        # the cache's own counters, as the span's attributes
        assert hit.attrs["cache_hits"] == 1
        assert hit.attrs["cache_misses"] == 1
        assert hit.attrs["cache_hit_rate"] == 0.5

    def test_machine_fingerprint_distinguishes_config(self):
        base = Machine(grid=(2, 2)).fingerprint()
        assert Machine(grid=(4, 1)).fingerprint() != base
        assert Machine(grid=(2, 2),
                       memory_per_pe=1 << 20).fingerprint() != base
        opts = CompilerOptions.make("O4", {"T"})
        with_machine = cache_key(SPEC.source, "MAIN", {"N": 16}, opts,
                                 machine_fingerprint=base)
        without = cache_key(SPEC.source, "MAIN", {"N": 16}, opts)
        assert with_machine != without

    def test_compile_kernel_helper_uses_cache(self):
        cache = PlanCache()
        a = compile_kernel("purdue9", bindings={"N": 16}, cache=cache)
        b = compile_kernel("purdue9", bindings={"N": 16}, cache=cache)
        assert a is b
        assert cache.stats.hits == 1


class TestWarmHitLatency:
    def test_warm_hit_is_fast(self):
        """The acceptance bar is <0.1 ms; allow slack for CI jitter
        while still catching an accidental repipeline on the hot path
        (a real miss costs tens of milliseconds)."""
        import time

        cache = PlanCache()
        _compile(cache)
        best = float("inf")
        for _ in range(20):
            t0 = time.perf_counter()
            _compile(cache)
            best = min(best, time.perf_counter() - t0)
        assert best < 2e-3, f"warm hit took {best * 1e3:.3f} ms"


class TestBindingCanonicalization:
    """Regression: ``np.int64(512)`` and ``512`` used to hash to
    *different* keys (their ``repr`` differs), so sweeps driven by
    ``np.arange`` never hit the cache; and a float or bool binding
    silently produced a unique key instead of failing."""

    OPTS = CompilerOptions()

    def _key(self, bindings):
        return cache_key(SPEC.source, "MAIN", bindings, self.OPTS)

    def test_numpy_int_hashes_like_python_int(self):
        import numpy as np
        assert self._key({"N": np.int64(512)}) == self._key({"N": 512})
        assert self._key({"N": np.int32(512)}) == self._key({"N": 512})

    def test_integral_float_hashes_like_int(self):
        import numpy as np
        assert self._key({"N": 512.0}) == self._key({"N": 512})
        assert self._key({"N": np.float64(512.0)}) == \
            self._key({"N": 512})

    def test_non_integral_float_rejected(self):
        with pytest.raises(TypeError, match="not an integral value"):
            self._key({"N": 512.5})

    def test_numpy_non_integral_rejected(self):
        import numpy as np
        with pytest.raises(TypeError, match="not an integral value"):
            self._key({"N": np.float32(12.25)})

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            self._key({"N": True})

    def test_non_numeric_rejected(self):
        with pytest.raises(TypeError, match="must be integers"):
            self._key({"N": "512"})
        with pytest.raises(TypeError, match="must be integers"):
            self._key({"N": [16]})

    def test_numpy_bindings_share_cache_entries(self):
        import numpy as np
        cache = PlanCache()
        a = _compile(cache, bindings={"N": np.int64(16)})
        b = _compile(cache, bindings={"N": 16})
        assert a is b
        assert cache.stats.hits == 1
