"""Kernel caches: key sensitivity, and how the two kernel tiers are
configured — ``(key, jit mode)`` module keys, the source codec.  What
every :mod:`repro.store` tier guarantees is in ``tests/test_store.py``."""

import pytest

from repro.codegen import (
    CodegenOptions, kernel_key, lower_plan, materialize,
)
from repro.codegen import cache as kcache
from repro.store import DiskStore
from repro.compiler import compile_hpf
from repro.kernels import KERNELS
from repro.machine import Machine
from repro.machine.cost_model import CostModel


def _plan(name="five_point", level="O2", n=12):
    spec = KERNELS[name]
    return compile_hpf(spec.source, bindings={"N": n}, level=level,
                       outputs=set(spec.outputs)).plan


@pytest.fixture(autouse=True)
def _fresh_module_cache():
    kcache.MODULES.invalidate()
    yield
    kcache.MODULES.invalidate()


class TestKernelKey:
    def test_deterministic(self):
        plan, machine = _plan(), Machine(grid=(2, 2))
        opts = CodegenOptions(tile=8, unroll=2)
        assert kernel_key(plan, machine, opts) == \
            kernel_key(plan, machine, opts)

    def test_factors_change_the_key(self):
        plan, machine = _plan(), Machine(grid=(2, 2))
        keys = {kernel_key(plan, machine, CodegenOptions(tile=t,
                                                         unroll=u))
                for t in (0, 8) for u in (0, 2)}
        assert len(keys) == 4

    def test_plan_changes_the_key(self):
        machine = Machine(grid=(2, 2))
        opts = CodegenOptions()
        assert kernel_key(_plan(n=12), machine, opts) != \
            kernel_key(_plan(n=16), machine, opts)

    def test_machine_changes_the_key(self):
        plan, opts = _plan(), CodegenOptions()
        a = Machine(grid=(2, 2))
        b = Machine(grid=(4, 1))
        c = Machine(grid=(2, 2), cost_model=CostModel(flop=1e-6))
        keys = {kernel_key(plan, m, opts) for m in (a, b, c)}
        assert len(keys) == 3


class TestModuleLRU:
    def _module(self):
        lp = lower_plan(_plan(), CodegenOptions())
        return materialize(lp.source, "python")

    def test_hit_and_miss_accounting(self):
        module, stats = self._module(), kcache.MODULES.stats
        assert stats.label == "kernel-memory"
        h0, m0 = stats.hits, stats.misses
        assert kcache.MODULES.get(("k1", "python")) is None
        kcache.MODULES.put(("k1", "python"), module)
        assert kcache.MODULES.get(("k1", "python")) is module
        assert (stats.hits, stats.misses) == (h0 + 1, m0 + 1)

    def test_mode_is_part_of_the_key(self):
        kcache.MODULES.put(("k1", "python"), self._module())
        assert kcache.MODULES.get(("k1", "numba")) is None

    def test_lru_evicts_oldest(self):
        module, bound = self._module(), kcache.MODULES.maxsize
        assert bound == 64
        for i in range(bound + 1):
            kcache.MODULES.put((f"k{i}", "python"), module)
        assert len(kcache.MODULES) == bound
        assert kcache.MODULES.get(("k0", "python")) is None
        assert kcache.MODULES.get((f"k{bound}", "python")) is module


class TestDiskCache:
    def test_put_get_roundtrip(self, tmp_path):
        """The codec files exactly what ``lower_plan`` returned."""
        cache, lowered = kcache.source_store(tmp_path), \
            lower_plan(_plan(), CodegenOptions(tile=4))
        cache.put("deadbeef", lowered)
        assert (tmp_path / "deadbeef.py").read_text() == lowered.source
        assert cache.get("deadbeef") == lowered
        assert len(cache) == 1

    def test_miss_counts(self, tmp_path):
        cache = kcache.source_store(tmp_path)
        assert cache.stats.label == "kernel-disk"
        assert cache.max_entries == 512       # the store's default bound
        assert cache.get("nope") is None
        assert cache.stats.misses == 1

    def test_survives_cache_object(self, tmp_path):
        """One store object per directory per process (its counters
        accumulate); another process's object reads the same files."""
        lowered = lower_plan(_plan(), CodegenOptions())
        assert kcache.source_store(tmp_path) is \
            kcache.source_store(str(tmp_path))
        kcache.source_store(tmp_path).put("k", lowered)
        other = DiskStore(tmp_path, kcache.SOURCE_CODEC)
        assert other.get("k") == lowered

    @pytest.mark.parametrize("text", [
        "def broken(:", "", "x = 1\n", "MANIFEST = {}\n",
        "return 1\nMANIFEST = {'nests': []}\n"])
    def test_decode_rejects_what_it_could_not_run(self, text):
        with pytest.raises(Exception):
            kcache.SOURCE_CODEC.decode(text)

    def test_materialized_from_disk_matches(self, tmp_path):
        plan = _plan()
        lp = lower_plan(plan, CodegenOptions(tile=4))
        cache = kcache.source_store(tmp_path)
        key = kernel_key(plan, Machine(grid=(2, 2)),
                         CodegenOptions(tile=4))
        cache.put(key, lp)
        revived = materialize(cache.get(key).source, "python")
        assert tuple(e.nest for e in revived.entries) == lp.nests
