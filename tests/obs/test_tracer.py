"""Unit tests for the tracer: nesting, attributes, JSONL, no-op mode."""

import json

import pytest

from repro.obs import NULL_TRACER, NullTracer, Span, Tracer, coalesce
from repro.obs.tracer import TRACE_SCHEMA


class FakeClock:
    """Deterministic clock: advances 1.0 per call."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        tr = Tracer()
        with tr.span("compile") as outer:
            with tr.span("parse"):
                pass
            with tr.span("codegen"):
                pass
        assert [s.name for s in tr.roots] == ["compile"]
        assert [c.name for c in outer.children] == ["parse", "codegen"]

    def test_sibling_roots(self):
        tr = Tracer()
        with tr.span("compile"):
            pass
        with tr.span("execute"):
            pass
        assert [s.name for s in tr.roots] == ["compile", "execute"]

    def test_deep_nesting_and_walk_order(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    pass
            with tr.span("d"):
                pass
        assert [s.name for s in tr.spans()] == ["a", "b", "c", "d"]

    def test_current_tracks_stack(self):
        tr = Tracer()
        assert tr.current is None
        with tr.span("a") as a:
            assert tr.current is a
            with tr.span("b") as b:
                assert tr.current is b
            assert tr.current is a
        assert tr.current is None

    def test_durations_from_clock(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("a"):
            with tr.span("b"):
                pass
        a, b = tr.find("a"), tr.find("b")
        # a: start=1, b: start=2 end=3, a: end=4
        assert a.t_start == 1.0 and a.t_end == 4.0
        assert b.duration == 1.0
        assert a.duration == 3.0

    def test_span_closed_even_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("a"):
                raise RuntimeError("boom")
        assert tr.current is None
        assert tr.find("a").t_end >= tr.find("a").t_start


class TestCounters:
    """Spans carry no counters: a number a span reports is an attribute,
    and what an op costs is the profile's business."""

    def test_spans_have_no_counter_api(self):
        for name in ("counters", "count", "gauge"):
            assert not hasattr(Span(name="a"), name)
        for name in ("count", "gauge", "totals"):
            assert not hasattr(Tracer(), name)
            assert not hasattr(NULL_TRACER, name)

    def test_attrs_from_span_kwargs(self):
        tr = Tracer()
        with tr.span("op", kind="op", array="U", shift=+1) as sp:
            pass
        assert sp.kind == "op"
        assert sp.attrs == {"array": "U", "shift": 1}


class TestJsonl:
    def make_trace(self) -> Tracer:
        tr = Tracer(clock=FakeClock())
        with tr.span("compile", kind="compile", level="O4") as sp:
            sp.attrs["overlap_shifts"] = 4
            with tr.span("pass:normalize", kind="pass", statements=17):
                pass
        with tr.span("execute", kind="execute", grid="2x2"):
            pass
        return tr

    def test_every_line_is_json(self):
        text = self.make_trace().to_jsonl()
        lines = text.strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert events[0] == TRACE_SCHEMA
        assert all(e["type"] in ("trace", "span") for e in events)

    def test_parent_precedes_child(self):
        events = self.make_trace().events()
        seen = set()
        for e in events[1:]:
            if e["parent"] is not None:
                assert e["parent"] in seen
            seen.add(e["id"])

    def test_round_trip_preserves_structure(self):
        tr = self.make_trace()
        back = Tracer.from_jsonl(tr.to_jsonl())
        assert [s.name for s in back.spans()] == \
            [s.name for s in tr.spans()]
        for a, b in zip(back.spans(), tr.spans()):
            assert a.kind == b.kind
            assert a.attrs == b.attrs
            assert a.t_start == b.t_start
            assert a.t_end == b.t_end
        # and a second round trip is a fixed point
        assert back.to_jsonl() == tr.to_jsonl()

    def test_write_and_read_file(self, tmp_path):
        tr = self.make_trace()
        path = tmp_path / "trace.jsonl"
        tr.write_jsonl(str(path))
        back = Tracer.from_jsonl(path.read_text())
        assert back.events() == tr.events()

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            Tracer.from_jsonl('{"type": "trace", "version": 999}\n')

    @staticmethod
    def span_line(**fields) -> str:
        event = {"type": "span", "id": "a#0", "parent": None, "name": "a",
                 "kind": "", "start": 1.0, "end": 2.0, "attrs": {}}
        event.update(fields)
        return json.dumps({k: v for k, v in event.items()
                           if v is not ...})

    def test_rejects_undefined_parent_naming_the_line(self):
        text = "\n".join([json.dumps(TRACE_SCHEMA), self.span_line(),
                          self.span_line(id="b#0/c#0", parent="b#0")])
        with pytest.raises(ValueError, match=r"line 3: no 'b#0'"):
            Tracer.from_jsonl(text)

    def test_rejects_a_child_before_its_parent(self):
        text = "\n".join([self.span_line(id="a#0/b#0", parent="a#0"),
                          self.span_line()])
        with pytest.raises(ValueError, match="line 1"):
            Tracer.from_jsonl(text)

    @pytest.mark.parametrize("field", ["name", "start", "end", "id"])
    def test_rejects_a_span_missing_a_field(self, field):
        text = "\n".join([json.dumps(TRACE_SCHEMA), "",
                          self.span_line(**{field: ...})])
        with pytest.raises(ValueError, match=f"line 3: .*'{field}'"):
            Tracer.from_jsonl(text)

    @pytest.mark.parametrize("line", [
        "[1]", '"span"', span_line(start=None),
        span_line(end="later"), span_line(attrs=[1]),
        span_line(parent=["a#0"]), span_line()[:-1],
        '{"type": "trace", "version": 999}',
    ], ids=["array", "string", "null-start", "text-end", "list-attrs",
            "list-parent", "truncated", "version"])
    def test_rejects_a_malformed_line_naming_it(self, line):
        """Every malformed line is a ``ValueError`` that names its line
        of the file, a JSON error's included."""
        text = "\n".join([json.dumps(TRACE_SCHEMA), "", line])
        with pytest.raises(ValueError, match=r"^line 3: "):
            Tracer.from_jsonl(text)

    def test_summary_mentions_names_and_counters(self):
        text = self.make_trace().summary()
        assert "compile" in text
        assert "pass:normalize" in text
        assert "overlap_shifts=4" in text


class TestStableSpanIds:
    def build(self, clock=None) -> Tracer:
        tr = Tracer(clock=clock) if clock else Tracer()
        with tr.span("compile"):
            with tr.span("pass:normalize"):
                pass
            with tr.span("pass:normalize"):
                pass
            with tr.span("codegen"):
                pass
        with tr.span("execute"):
            with tr.span("overlap_shift"):
                pass
            with tr.span("loop_nest"):
                pass
            with tr.span("overlap_shift"):
                pass
        return tr

    def test_ids_are_parent_path_plus_ordinal(self):
        ids = [sid for _, sid, _ in self.build().iter_with_ids()]
        assert ids == [
            "compile#0",
            "compile#0/pass:normalize#0",
            "compile#0/pass:normalize#1",
            "compile#0/codegen#0",
            "execute#0",
            "execute#0/overlap_shift#0",
            "execute#0/loop_nest#0",
            "execute#0/overlap_shift#1",
        ]

    def test_ids_independent_of_wall_clock(self):
        slow = FakeClock()
        slow.t = 1000.0
        a = [sid for _, sid, _ in self.build(FakeClock()).iter_with_ids()]
        b = [sid for _, sid, _ in self.build(slow).iter_with_ids()]
        assert a == b

    def test_repeated_roots_get_ordinals(self):
        tr = Tracer()
        for _ in range(3):
            with tr.span("execute"):
                pass
        ids = [sid for _, sid, _ in tr.iter_with_ids()]
        assert ids == ["execute#0", "execute#1", "execute#2"]

    def test_events_carry_stable_ids(self):
        events = self.build().events()
        assert events[0] == {"type": "trace", "version": 3}
        assert all(set(e) == {"type", "id", "parent", "name", "kind",
                              "start", "end", "dur", "attrs"}
                   for e in events[1:])
        by_id = {e["id"]: e for e in events[1:]}
        child = by_id["compile#0/pass:normalize#1"]
        assert child["parent"] == "compile#0"
        assert by_id["compile#0"]["parent"] is None

    def test_round_trip_preserves_ids(self):
        tr = self.build(FakeClock())
        back = Tracer.from_jsonl(tr.to_jsonl())
        assert back.events() == tr.events()

    def test_reads_version1_integer_ids(self):
        v1 = "\n".join([
            '{"type": "trace", "version": 1}',
            '{"type": "span", "id": 0, "parent": null, "name": "compile",'
            ' "kind": "compile", "start": 1.0, "end": 4.0, "dur": 3.0,'
            ' "attrs": {}, "counters": {}}',
            '{"type": "span", "id": 1, "parent": 0, "name": "parse",'
            ' "kind": "pass", "start": 2.0, "end": 3.0, "dur": 1.0,'
            ' "attrs": {}, "counters": {}}',
        ]) + "\n"
        back = Tracer.from_jsonl(v1)
        assert [s.name for s in back.spans()] == ["compile", "parse"]
        assert back.find("compile").children[0].name == "parse"
        # re-serializing upgrades to version-3 stable ids
        events = back.events()
        assert events[0]["version"] == 3
        assert events[2]["id"] == "compile#0/parse#0"

    def test_reads_version2_counters_as_attrs(self):
        v2 = "\n".join([
            '{"type": "trace", "version": 2}',
            '{"type": "span", "id": "compile#0", "parent": null,'
            ' "name": "compile", "kind": "compile", "start": 1.0,'
            ' "end": 4.0, "dur": 3.0, "attrs": {"level": "O4"},'
            ' "counters": {}}',
            '{"type": "span", "id": "compile#0/pass:comm-union#0",'
            ' "parent": "compile#0", "name": "pass:comm-union",'
            ' "kind": "pass", "start": 2.0, "end": 3.0, "dur": 1.0,'
            ' "attrs": {}, "counters": {"shifts_before": 8.0,'
            ' "shifts_after": 4.0}}',
        ]) + "\n"
        back = Tracer.from_jsonl(v2)
        span = back.find("pass:comm-union")
        assert span.attrs["shifts_after"] == 4
        assert span.attrs["shifts_before"] == 8
        assert back.find("compile").attrs == {"level": "O4"}
        assert all("counters" not in e for e in back.events())


class TestNullTracer:
    def test_records_nothing(self):
        tr = NullTracer()
        with tr.span("a", kind="x", attr=1) as sp:
            assert sp.attrs == {}
        assert tr.roots == []
        assert list(tr.spans()) == []
        assert tr.events() == [TRACE_SCHEMA]

    def test_untraced_span_attrs_are_read_only(self):
        """One span object serves every untraced region in the process:
        a write that forgot ``tracer.enabled`` must fail, not leak."""
        with NULL_TRACER.span("a") as sp:
            with pytest.raises(TypeError):
                sp.attrs["status"] = "built"
        assert NULL_TRACER.span("b").attrs == {}

    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3", "O4"])
    def test_untraced_compile_and_run_write_no_attrs(self, level):
        # every guarded attribute write, on a cache miss and a hit
        from repro.compiler.cache import PlanCache
        from repro.kernels import run_kernel
        cache = PlanCache()
        for _ in range(2):
            run_kernel("purdue9", bindings={"N": 16}, level=level,
                       cache=cache)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        run_kernel("cg", bindings={"N": 16, "NITER": 2}, level=level,
                   backend="vectorized")

    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_span_is_shared_singleton(self):
        tr = NullTracer()
        assert tr.span("a") is tr.span("b")

    def test_coalesce(self):
        assert coalesce(None) is NULL_TRACER
        tr = Tracer()
        assert coalesce(tr) is tr


class TestSpanHelpers:
    def test_find_raises_keyerror(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        with pytest.raises(KeyError):
            tr.find("missing")
        with pytest.raises(KeyError):
            tr.find("a").find("missing")

    def test_span_find_searches_subtree(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    pass
        assert tr.find("a").find("c").name == "c"

    def test_duration_never_negative(self):
        sp = Span(name="x", t_start=5.0, t_end=1.0)
        assert sp.duration == 0.0


class TestSpanNameIsPositionalOnly:
    """``name`` is also an attribute key: a ``scalar_assign`` op's span
    carries ``attrs["name"]`` (the scalar assigned)."""

    def test_name_attribute_does_not_collide_with_span_name(self):
        tr = Tracer()
        with tr.span("scalar_assign", kind="op", name="ALPHA") as span:
            pass
        assert span.name == "scalar_assign"
        assert span.attrs == {"name": "ALPHA"}
        with NullTracer().span("scalar_assign", kind="op", name="ALPHA"):
            pass

    @pytest.mark.parametrize("backend", ["perpe", "vectorized",
                                         "parallel", "parallel-striped"])
    def test_traced_run_of_a_plan_with_scalar_assigns(self, backend):
        # every backend is one op walk in this process: all have per-op
        # spans, the parallel backend included, its nests cut in
        # stripes or (at this size, unforced) run whole
        from contextlib import nullcontext

        from repro.kernels import run_kernel
        from repro.testing import forced_stripes
        backend, _, striped = backend.partition("-")
        tr = Tracer()
        with forced_stripes() if striped else nullcontext():
            run_kernel("cg", bindings={"N": 16, "NITER": 2},
                       backend=backend, tracer=tr, workers=2)
        assigned = {s.attrs["name"] for s in tr.spans()
                    if s.name == "scalar_assign"}
        assert "ALPHA" in assigned
