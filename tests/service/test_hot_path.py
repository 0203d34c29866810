"""The service's hot path does each piece of work once, with the same
bytes out.

* A memory hit whose plan document is already encoded is answered on
  the event loop: no pool hop, no ``plan_to_json``.
* A ``/run`` body is built and encoded on the pool thread that ran the
  job, the array payloads spliced in as bytes; it equals what the plain
  encoder, ``json.dumps(doc, sort_keys=True) + "\\n"``, writes for the
  same document.
* A fixed request sequence leaves the cache and coalescer counters the
  pool-for-everything path left.
"""

import asyncio
import base64
import hashlib
import json

import pytest

from repro.kernels import run_kernel
from repro.service.handlers import Response, ServiceState, handle_compile
from repro.service.schemas import SERVICE_SCHEMA
from tests.service.test_http import ServiceHarness

FIVE = {"kernel": "five_point", "bindings": {"N": 12}, "level": "O2"}

#: five_point's first term over DOUBLE PRECISION arrays: float64 output
DOUBLE_SOURCE = """\
      DOUBLE PRECISION, DIMENSION(N,N) :: T, U
!HPF$ DISTRIBUTE T(BLOCK,BLOCK)
!HPF$ ALIGN U WITH T
      T = U + CSHIFT(U,SHIFT=+1,DIM=1) + CSHIFT(U,SHIFT=-1,DIM=2)
"""
DOUBLE = {"source": DOUBLE_SOURCE, "bindings": {"N": 12},
          "outputs": ["T"]}


def plain(doc) -> bytes:
    """The encoder every response went through before array bytes
    were spliced in."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


@pytest.fixture
def harness(tmp_path):
    h = ServiceHarness(tmp_path)
    yield h
    h.close()


def test_spliced_bytes_equal_the_plain_encoder():
    data = [base64.b64encode(bytes(range(n))) for n in (0, 1, 2, 200)]
    doc = {"z": data[0], "a": [data[1], {"y": data[2], "b": "text"}],
           "m": {"q": data[3], "n": 1.5, "none": None}}
    as_text = json.loads(json.dumps(doc, default=bytes.decode))
    assert Response.json(doc).body == plain(
        {"schema": dict(SERVICE_SCHEMA), **as_text})
    # a string spelled like the splice marker is text, not a splice
    marker = {"data": data[3], "error": "\0splice\0"}
    assert Response.json(marker).body == plain(
        json.loads(Response.json(marker).body))
    assert json.loads(Response.json(marker).body)["error"] == "\0splice\0"
    with pytest.raises(TypeError, match="set"):
        Response.json({"bad": {1}})


@pytest.mark.parametrize("arrays", ["none", "digest", "full"])
@pytest.mark.parametrize("job,dtype", [(FIVE, "float32"),
                                       (DOUBLE, "float64")],
                         ids=["float32", "float64"])
def test_run_body_is_the_plain_encoding(harness, job, dtype, arrays):
    """A miss and then a hit: each body is byte for byte the plain
    encoding of its own document, and its payload decodes to the
    arrays it names."""
    request = {**job, "arrays": arrays, "seed": 4}
    for _ in ("miss", "hit"):
        status, _, body = harness.request("POST", "/run", request)
        assert status == 200, body
        doc = json.loads(body)
        assert body == plain(doc)
        entries = doc.get("arrays", {})
        assert (arrays == "none") == (not entries)
        for entry in entries.values():
            assert entry["dtype"] == dtype
            if arrays == "full":
                raw = base64.b64decode(entry["data"], validate=True)
                assert hashlib.sha256(raw).hexdigest() == entry["sha256"]
    if job is FIVE and arrays != "none":
        direct = run_kernel("five_point", bindings={"N": 12},
                            level="O2", seed=4)
        assert {n: e["sha256"] for n, e in entries.items()} == {
            n: hashlib.sha256(a.tobytes()).hexdigest()
            for n, a in direct.arrays.items()}


def test_a_memory_hit_takes_no_pool_hop(harness, tmp_path, monkeypatch):
    """Once a program's plan document is encoded, a hit on it compiles
    on the loop: ``/compile`` submits nothing and ``/run`` submits only
    the run.  A program decoded from the disk tier is encoded once, on
    the pool, and is then a loop hit too."""
    import repro.plan

    state = harness.service.state
    harness.json("POST", "/compile", FIVE)
    submitted, encoded = [], []
    submit, to_json = state.pool.submit, repro.plan.plan_to_json

    async def counting_submit(fn):
        submitted.append(fn)
        return await submit(fn)

    def counting_to_json(plan):
        encoded.append(plan)
        return to_json(plan)

    monkeypatch.setattr(state.pool, "submit", counting_submit)
    monkeypatch.setattr(repro.plan, "plan_to_json", counting_to_json)
    first = harness.json("POST", "/compile", FIVE)
    assert (len(submitted), len(encoded)) == (0, 0)
    harness.json("POST", "/run", FIVE)
    assert (len(submitted), len(encoded)) == (1, 0)

    state.plan_cache.memory.invalidate()       # only the disk tier holds it
    for expect in (1, 0):
        submitted.clear()
        doc = harness.json("POST", "/compile", FIVE)
        assert (len(submitted), len(encoded)) == (expect, 1)
        assert doc["plan_key"] == first["plan_key"]
    status, _, text = harness.request("GET", first["plan_url"])
    assert status == 200
    assert hashlib.sha256(text).hexdigest() == first["plan_key"]


def test_a_memory_hit_run_refreshes_the_disk_entry(harness):
    """The loop-side memory hit keeps the plan's disk entry recent, so
    the disk tier does not prune the plans served most."""
    import os

    key = harness.json("POST", "/run", FIVE)["key"]
    entry = harness.service.state.plan_cache.disk.file(key)
    old = entry.stat().st_mtime - 500
    os.utime(entry, (old, old))
    assert harness.json("POST", "/run", FIVE)["key"] == key
    assert entry.stat().st_mtime > old + 400


#: what the sequence below left when every compile took a pool thread
PARENT_COUNTS = {
    "plan-memory": {"hits": 2.0, "misses": 3.0, "invalidations": 1.0,
                    "pruned": 0.0},
    "plan-disk": {"hits": 0.0, "misses": 3.0, "invalidations": 1.0,
                  "pruned": 0.0},
    "coalesced": {"leaders": 5, "followers": 5},
}


def test_counters_of_a_fixed_sequence(harness, tmp_path):
    """Miss, hit, a coalesced burst of a new key, an evict and a rerun,
    then a second server on the same directory: the tier counters and
    coalescer roles the pool-for-everything path produced."""
    state = harness.service.state
    other = {**FIVE, "bindings": {"N": 16}}

    async def burst(doc, n):
        return await asyncio.gather(
            *(handle_compile(state, doc) for _ in range(n)))

    run = harness.json("POST", "/run", FIVE)                  # miss
    harness.json("POST", "/run", FIVE)                        # hit
    roles = [json.loads(r.body)["coalesced"]
             for r in harness._call(burst(other, 6))]
    assert roles == [False] + [True] * 5
    harness.json("POST", "/cache/evict", {"key": run["key"]})
    harness.json("POST", "/run", FIVE)                        # miss again
    harness.json("POST", "/compile", FIVE)                    # hit
    health = harness.json("GET", "/healthz")

    def counts(label):
        return {event: health["caches"][label][event] for event in
                ("hits", "misses", "invalidations", "pruned")}

    assert counts("plan-memory") == PARENT_COUNTS["plan-memory"]
    assert counts("plan-disk") == PARENT_COUNTS["plan-disk"]
    assert health["coalesced"] == PARENT_COUNTS["coalesced"]

    # a second server on the same directory: a memory miss, a disk hit
    second = ServiceState(cache_dir=str(tmp_path / "cache"))
    try:
        async def twice():
            for _ in range(2):
                await handle_compile(second, other)
        harness._call(twice())
        stats = second.cache_stats()
        assert (stats["plan-memory"]["hits"],
                stats["plan-memory"]["misses"]) == (1.0, 1.0)
        assert (stats["plan-disk"]["hits"],
                stats["plan-disk"]["misses"]) == (1.0, 0.0)
        assert (second.coalescer.leaders,
                second.coalescer.followers) == (2, 0)
    finally:
        second.close()
