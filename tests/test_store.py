"""Contract of :mod:`repro.store`, the one mechanism behind every cache.

Each guarantee is checked once, for every tier that makes it and — on
the directory tier — for both codecs in use (plan JSON as text, native
kernel blobs as bytes), so the plan caches and the kernel directory
cannot drift apart again.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing
import os
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, PersistentPlanCache, compile_hpf
from repro.compiler.cache import PLAN_CODEC
from repro.kernels import KERNELS
from repro.runtime.native import SO_CODEC
from repro.store import Codec, DiskStore, MemoryStore, TieredStore
from tests.conftest import PARENT_CACHE, retired_kernel_file

SPEC = KERNELS["five_point"]
CODECS = {"plan": PLAN_CODEC, "kernel": SO_CODEC}


def _compile(n):
    return compile_hpf(SPEC.source, bindings={"N": n}, level="O2",
                       outputs=set(SPEC.outputs))


@functools.lru_cache(maxsize=None)
def values(kind: str) -> tuple:
    """Six distinct values the ``kind`` codec files."""
    programs = tuple(_compile(8 + 4 * i) for i in range(6))
    if kind == "plan":
        return programs
    # what repro.runtime.native files: payload + sha256(payload) + key
    return tuple(so + hashlib.sha256(so).hexdigest().encode()
                 + b"%064x" % i
                 for i, so in enumerate(b"\x7fELF-%d" % i for i in range(6)))


def make(tier: str, kind: str, path, bound: int = 64):
    memory = MemoryStore(bound, label="t-memory")
    if tier == "memory":
        return memory
    disk = DiskStore(path, CODECS[kind], max_entries=bound, label="t-disk")
    return disk if tier == "disk" else TieredStore(memory, disk)


def same(kind: str, a, b) -> bool:
    """Equal as stored: the disk tier hands back a decoded copy."""
    return CODECS[kind].encode(a) == CODECS[kind].encode(b)


def raw(kind: str, path: Path):
    """An entry's file content, as its codec reads it."""
    return path.read_bytes() if CODECS[kind].binary else path.read_text()


def backdate(path: Path, seconds: float) -> float:
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))
    return stamp


@pytest.mark.parametrize("kind", ["plan", "kernel"])
@pytest.mark.parametrize("tier", ["memory", "disk", "tiered"])
class TestEveryTier:
    def test_miss_then_hit_is_counted(self, tier, kind, tmp_path):
        store, value = make(tier, kind, tmp_path), values(kind)[0]
        assert store.get("k") is None
        store.put("k", value)
        assert same(kind, store.get("k"), value)
        assert (store.stats.hits, store.stats.misses) == (1, 1)

    def test_invalidate_one_then_all(self, tier, kind, tmp_path):
        store = make(tier, kind, tmp_path)
        tiers = 2 if tier == "tiered" else 1
        for key, value in zip("abc", values(kind)):
            store.put(key, value)
        assert store.invalidate("a") == tiers
        assert store.invalidate("a") == 0
        assert store.get("a") is None
        assert store.get("b") is not None
        assert store.invalidate() == 2 * tiers
        assert store.get("b") is None and store.get("c") is None
        assert store.stats.invalidations == 3

    def test_get_or_produce(self, tier, kind, tmp_path):
        store = make(tier, kind, tmp_path)
        first, other = values(kind)[:2]
        calls = []

        def produce():
            calls.append(1)
            return first

        assert store.get_or_produce("k", produce) is first
        assert same(kind, store.get_or_produce("k", produce), first)
        assert len(calls) == 1
        # a readable entry that is not this key's content is replaced
        store.put("k", other)
        got = store.get_or_produce(
            "k", produce, accept=lambda v: same(kind, v, first))
        assert got is first and len(calls) == 2
        assert same(kind, store.get("k"), first)
        assert store.stats.invalidations == 1

    def test_eight_threads_lose_nothing(self, tier, kind, tmp_path):
        """More threads than cores over disjoint keys, well inside the
        bound: an entry can only vanish, or a counter fall short,
        through a lost update."""
        store, pool = make(tier, kind, tmp_path), values(kind)
        threads, nkeys, ops = 8, 4, 40
        errors = []
        start = threading.Barrier(threads)

        def hammer(tid):
            try:
                start.wait(30)
                for op in range(ops):
                    key = f"k{tid}-{op % nkeys}"
                    if store.get(key) is None:
                        store.put(key, pool[op % nkeys])
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        workers = [threading.Thread(target=hammer, args=(tid,))
                   for tid in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in workers)
        for tid in range(threads):
            for i in range(nkeys):
                assert same(kind, store.get(f"k{tid}-{i}"), pool[i])
        counted = [store.memory, store.disk] if tier == "tiered" \
            else [store]
        # every key missed exactly once, in every tier it passed through
        assert all(s.stats.misses == threads * nkeys for s in counted)
        assert counted[0].stats.hits + counted[0].stats.misses == \
            threads * (ops + nkeys)
        assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("kind", ["plan", "kernel"])
@pytest.mark.parametrize("tier", ["memory", "disk"])
def test_bound_evicts_least_recently_used(tier, kind, tmp_path):
    store, pool = make(tier, kind, tmp_path, bound=3), values(kind)
    for age, key in enumerate("abc"):
        store.put(key, pool[age])
        if tier == "disk":  # spread mtimes beyond filesystem resolution
            backdate(store.file(key), 100 - age)
    assert store.get("a") is not None        # "b" is now the oldest
    store.put("d", pool[3])
    store.put("e", pool[4])
    assert len(store) == 3
    assert store.get("b") is None and store.get("c") is None
    assert store.get("a") is not None
    evicted = store.stats.pruned if tier == "disk" \
        else store.stats.evictions
    assert evicted == 2


def test_bounds_are_validated(tmp_path):
    with pytest.raises(ValueError, match="maxsize"):
        MemoryStore(0)
    with pytest.raises(ValueError, match="max_entries"):
        DiskStore(tmp_path, PLAN_CODEC, max_entries=0)


def test_binary_codec_files_bytes_verbatim(tmp_path):
    """A binary entry is never text: bytes that are not UTF-8, NULs and
    CRLF reach the file, and come back, unchanged."""
    so = b"\xff\xfe\x00\r\n\x7fELF"
    blob = so + hashlib.sha256(so).hexdigest().encode() + b"0" * 64
    store = DiskStore(tmp_path, SO_CODEC)
    store.put("k", blob)
    assert store.file("k").read_bytes() == blob == store.get("k")


def _racer(path: str, kind: str, rank: int) -> None:
    """Child of the multi-process race: overwrite two shared keys with
    alternating values and read them back.  The keys exist before the
    race starts, so a miss means a torn or half-written entry."""
    store, pool = DiskStore(path, CODECS[kind], max_entries=16), values(kind)
    valid = {CODECS[kind].encode(v) for v in pool[:2]}
    for i in range(30):
        key = f"shared{(rank + i) % 2}"
        store.put(key, pool[(rank + i) % 2])
        got = store.get(key)
        if got is None or CODECS[kind].encode(got) not in valid:
            raise SystemExit(3)
        store.put(f"own{rank}-{i}", pool[2])    # keeps every pruner busy


@pytest.mark.parametrize("kind", ["plan", "kernel"])
class TestDirectoryTier:
    def test_processes_racing_one_directory(self, kind, tmp_path):
        store = make("disk", kind, tmp_path, bound=16)
        for key in ("shared0", "shared1"):
            store.put(key, values(kind)[0])
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_racer,
                             args=(str(tmp_path), kind, rank))
                 for rank in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(180)
            assert p.exitcode == 0
        assert not list(tmp_path.glob("*.tmp"))
        survivors = list(tmp_path.glob(f"*{CODECS[kind].suffix}"))
        assert 0 < len(survivors) <= 16
        for f in survivors:
            CODECS[kind].decode(raw(kind, f))    # no torn entry

    @pytest.mark.parametrize("damage", ["junk", "truncated", "empty"])
    def test_unreadable_entry_is_a_miss_after_one_reread(
            self, kind, damage, tmp_path):
        codec, reads = CODECS[kind], []

        def decode(text):
            reads.append(text)
            return codec.decode(text)

        store = DiskStore(tmp_path, codec._replace(decode=decode))
        value = values(kind)[0]
        store.put("k", value)
        text = raw(kind, store.file("k"))
        damaged = {"junk": "def broken(:", "empty": "",
                   "truncated": text[:len(text) // 2]}[damage]
        store.file("k").write_bytes(
            damaged if isinstance(damaged, bytes) else damaged.encode())
        assert store.get("k") is None
        assert len(reads) == 2 and store.stats.misses == 1
        store.put("k", value)                    # the owner recomputes
        assert same(kind, store.get("k"), value)

    def test_reread_sees_a_racing_writers_entry(self, kind, tmp_path):
        codec, value = CODECS[kind], values(kind)[0]
        failures = [ValueError("caught mid-replace")]

        def decode(text):
            if failures:
                raise failures.pop()
            return codec.decode(text)

        store = DiskStore(tmp_path, codec._replace(decode=decode))
        store.put("k", value)
        assert same(kind, store.get("k"), value)
        assert (store.stats.hits, store.stats.misses) == (1, 0)

    def test_hit_refreshes_mtime(self, kind, tmp_path):
        store = make("disk", kind, tmp_path)
        store.put("k", values(kind)[0])
        old = backdate(store.file("k"), 500)
        store.get("k")
        assert store.file("k").stat().st_mtime > old + 400

    def test_prune_order_is_mtime_then_name(self, kind, tmp_path):
        """Entries sharing one (coarse) mtime are pruned in name order,
        not directory order; pruning never decodes, so filler will do."""
        suffix = CODECS[kind].suffix
        names = [f"{i:02d}{'ab'[i % 2]}{suffix}" for i in range(20)]
        stamp = time.time() - 50
        for name in sorted(names, key=lambda n: n[::-1]):
            (tmp_path / name).write_text("filler")
            os.utime(tmp_path / name, (stamp, stamp))
        backdate(tmp_path / names[0], 40)        # newer despite its name
        store = make("disk", kind, tmp_path, bound=5)
        store.put("new", values(kind)[0])
        assert sorted(f.name for f in tmp_path.glob(f"*{suffix}")) == \
            sorted([names[0], *names[-3:], f"new{suffix}"])
        assert store.stats.pruned == 16

    def test_open_sweeps_only_stale_tmp_litter(self, kind, tmp_path):
        age = DiskStore.TMP_SWEEP_AGE
        for name, seconds in (("dead", age + 30), ("live", age - 30),
                              ("now", 0)):
            (tmp_path / f"{name}.tmp").write_text("partial")
            backdate(tmp_path / f"{name}.tmp", seconds)
        store = make("disk", kind, tmp_path)
        assert sorted(f.name for f in tmp_path.glob("*.tmp")) == \
            ["live.tmp", "now.tmp"]
        assert store.stats.tmp_swept == 1

    @pytest.mark.parametrize("key", ["../x", "a/b", "/abs", "", "x\0",
                                     5, None], ids=repr)
    def test_key_is_a_single_path_component(self, kind, key, tmp_path):
        """Regression: ``invalidate("../x")`` unlinked
        ``<dir>/../x<suffix>``; a bad key raises before any file is
        touched, on every operation."""
        store = make("disk", kind, tmp_path / "store")
        sentinel = tmp_path / f"x{CODECS[kind].suffix}"
        sentinel.write_text("outside the store")
        with pytest.raises(ValueError, match="key"):
            store.get(key)
        with pytest.raises(ValueError, match="key"):
            store.put(key, values(kind)[0])
        if key is not None:                     # None means "every entry"
            with pytest.raises(ValueError, match="key"):
                store.invalidate(key)
        assert sentinel.read_text() == "outside the store"
        assert set(tmp_path.rglob("*")) == {tmp_path / "store", sentinel}


def test_directory_written_by_the_parent_commit_is_warm(tmp_path):
    """``tests/fixtures/parent_cache`` was written by the commit
    before :mod:`repro.store` existed (``PersistentPlanCache`` and
    ``KernelDiskCache`` of 6b6a7aa, five_point N=12 O2 on a 2x2
    machine): key derivation, file names and file contents are the
    compatibility surface.  (The plan entry was re-keyed, contents
    unchanged, when the options fingerprint lost ``cse`` /
    ``hoist_comm`` / ``plan_passes`` / ``verify_plan``.)  A deliberate
    ``PLAN_SCHEMA_VERSION`` / options-fingerprint change regenerates
    the plan entry by running that compile against an empty directory.
    Its ``kernels/`` subdirectory is the retired kernel-source tier:
    nothing opens it any more, and the plan tier never looks below its
    own directory — not on a hit, not when it prunes, not when it is
    emptied."""
    shutil.copytree(PARENT_CACHE, tmp_path / "cache")
    kernel_state = retired_kernel_file(tmp_path / "cache")
    before = kernel_state()
    compiled = _compile(12)
    store = PersistentPlanCache(tmp_path / "cache", max_entries=1)
    key = store.key_for(
        SPEC.source, "MAIN", {"N": 12},
        CompilerOptions.make("O2", set(SPEC.outputs)))
    assert [f.stem for f in store._entries()] == [key]
    found = store.get(key)
    assert store.stats.hits == 1
    assert PLAN_CODEC.encode(found) == PLAN_CODEC.encode(compiled) \
        == store.file(key).read_text()
    store.put("other", compiled)             # prunes the fixture's entry
    assert store.stats.pruned == 1 and store.invalidate() == 1
    assert kernel_state() == before


@pytest.mark.parametrize("kind", ["plan", "kernel"])
class TestTiering:
    def test_disk_hit_is_promoted(self, kind, tmp_path):
        store, value = make("tiered", kind, tmp_path), values(kind)[0]
        store.disk.put("k", value)
        assert same(kind, store.get("k"), value)
        assert len(store.memory) == 1
        assert store.get("k") is store.get("k")    # served from memory
        assert store.disk.stats.hits == 1

    def test_put_writes_through(self, kind, tmp_path):
        store, value = make("tiered", kind, tmp_path), values(kind)[0]
        store.put("k", value)
        assert store.memory.get("k") is value
        assert same(kind, store.disk.get("k"), value)

    def test_memory_hits_keep_the_disk_entry_recent(self, kind, tmp_path):
        """A key served from memory all along is the last the disk
        prune evicts, not the first: every memory hit touches its disk
        entry.  Each round ages the directory ten seconds, so the order
        does not hang on the filesystem's mtime resolution."""
        suffix = CODECS[kind].suffix
        store = TieredStore(MemoryStore(4),
                            DiskStore(tmp_path, CODECS[kind], max_entries=8))
        hot, *others = values(kind)
        store.put("hot", hot)
        for i in range(12):
            for f in tmp_path.glob(f"*{suffix}"):
                aged = f.stat().st_mtime - 10
                os.utime(f, (aged, aged))
            assert store.get("hot") is hot
            assert store.get_if("hot", lambda v: v is hot) is hot
            store.put(f"k{i:02d}", others[i % len(others)])
        assert store.memory.stats.hits == 24
        assert store.disk.stats.hits == 0
        assert store.disk.file("hot").exists()
        assert sorted(f.stem for f in tmp_path.glob(f"*{suffix}")) == \
            ["hot"] + [f"k{i:02d}" for i in range(5, 12)]

    def test_memory_only(self, kind):
        store, value = TieredStore(MemoryStore()), values(kind)[0]
        assert store.get("k") is None
        store.put("k", value)
        assert store.get("k") is value
        assert store.invalidate() == 1


# -- pruning without a full stat ---------------------------------------------

TEXT = Codec(".e", str, str)


def full_stat_victims(path: Path, suffix: str, bound: int) -> list:
    """The pruner's victims as the full-stat sort picks them: every
    entry statted, sorted by ``(st_mtime, name)``, the oldest beyond
    ``bound`` evicted."""
    entries = sorted((f.stat().st_mtime, f.name)
                     for f in path.glob(f"*{suffix}"))
    return [name for _, name in entries[:max(0, len(entries) - bound)]]


def checked_prunes(store: DiskStore) -> list:
    """Hold every prune of ``store`` to :func:`full_stat_victims`:
    the files it removes and the count it returns.  Returns the list
    the checked prunes' victim counts are appended to."""
    prune, counts = store._prune, []

    def checked():
        before = set(store._names())
        expected = full_stat_victims(store.path, store.codec.suffix,
                                     store.max_entries)
        pruned = prune()
        assert sorted(before - set(store._names())) == sorted(expected)
        assert pruned == len(expected)
        counts.append(pruned)
        return pruned

    store._prune = checked
    return counts


_KEYS = st.sampled_from("abcdefg")
_OPS = st.lists(st.one_of(
    st.tuples(st.just("put"), _KEYS),
    st.tuples(st.just("get"), _KEYS),
    st.tuples(st.just("add"), _KEYS),       # another process's put
    st.tuples(st.just("remove"), _KEYS),    # another process's prune
    st.tuples(st.just("tick"), st.integers(0, 2)),
), max_size=40)


@settings(max_examples=60, deadline=None)
@given(bound=st.integers(1, 4), ops=_OPS)
def test_prune_picks_the_full_stat_victims(bound, ops):
    """Differential: the indexed pruner against the full-stat sort it
    replaced.  Every mtime comes from a clock the test steps (0 or more
    per step, so ties are common, as on a coarse-mtime filesystem) and
    only moves forward, including the bump of a ``get``."""
    clock = [time.time() - 10_000]

    def stamp(path):
        os.utime(path, (clock[0], clock[0]))

    real_replace, real_utime = os.replace, os.utime

    def replace(src, dst):                  # a put lands at the clock
        real_replace(src, dst)
        stamp(dst)

    def utime(path, times=None, **kw):      # a get's bump is the clock
        real_utime(path, times or (clock[0], clock[0]), **kw)

    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        store = DiskStore(tmp, TEXT, max_entries=bound)
        counts = checked_prunes(store)
        patch.setattr(os, "replace", replace)
        patch.setattr(os, "utime", utime)
        for op, arg in ops:
            if op == "tick":
                clock[0] += arg
            elif op == "put":
                store.put(arg, f"value of {arg}")
            elif op == "get":
                store.get(arg)
            elif op == "add":
                store.file(arg).write_text(f"foreign {arg}")
                stamp(store.file(arg))
            else:
                store.file(arg).unlink(missing_ok=True)
        store._prune()
        assert len(store) <= bound
        assert store.stats.pruned == sum(counts)


def test_a_put_at_the_bound_stats_three_files_at_most(tmp_path,
                                                      monkeypatch):
    store = DiskStore(tmp_path, TEXT, max_entries=32)
    for i in range(32):
        store.put(f"k{i}", "filler")
    store.get("k0")
    statted, real_stat = [], os.stat

    def stat(path, *args, **kwargs):
        if Path(path).parent == tmp_path:
            statted.append(Path(path).name)
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", stat)
    for key in ("new", "k5"):                # a new entry, a rewrite
        statted.clear()
        store.put(key, "filler")
        assert len(statted) <= 3, statted
        assert len(store) == 32
    assert store.stats.pruned == 1


def test_threads_storming_puts_keep_the_bound(tmp_path):
    """Threads (more than the host's cores) share one store and so the
    pruner's index: nothing raises and the bound holds at the end."""
    store, errors = DiskStore(tmp_path, TEXT, max_entries=8), []

    def storm(rank):
        try:
            for i in range(150):
                store.put(f"r{rank}-{i % 40}", f"{rank} {i}")
                if i % 7 == 0:
                    store.get(f"r{(rank + 1) % 4}-{i % 40}")
        except Exception as exc:   # any error fails the test below
            errors.append(exc)

    threads = [threading.Thread(target=storm, args=(rank,))
               for rank in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(store) <= 8
    assert not list(tmp_path.glob("*.tmp"))
