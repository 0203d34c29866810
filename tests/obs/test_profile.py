"""Communication-profiler tests: collector attribution, per-class
matrices, backend equivalence, serialization round-trips, and the
Chrome-trace export."""

import json

import pytest

from repro.errors import MachineError
from repro.kernels import run_kernel
from repro.machine import Machine
from repro.machine.cost_model import CostReport
from repro.machine.network import Network, comm_tag, tag_class
from repro.obs import (
    CommProfile, MATRIX_CLASSES, PHASES, ProfileCollector, Tracer,
    chrome_trace, profile_from_json, profile_to_json, read_profile,
    write_profile,
)

LEVELS = ("O0", "O1", "O2", "O3", "O4")
NAMED_KERNELS = ("five_point", "nine_point", "purdue9")


def profiled(kernel="nine_point", level="O4", backend="perpe",
             grid=(2, 2), n=16, iterations=1):
    result = run_kernel(kernel, grid=grid, bindings={"N": n}, level=level,
                        backend=backend, iterations=iterations,
                        profile=True)
    assert result.profile is not None
    return result


class TestTagTaxonomy:
    def test_comm_tag_classes(self):
        assert comm_tag("U", 1, +1) == "halo:U:d1:+1"
        assert comm_tag("U", 2, -1, widened=True) == "rsd:U:d2:-1"
        assert comm_tag("__shiftbuf_U__", 1, +1) == \
            "bufshift:__shiftbuf_U__:d1:+1"
        # buffer prefix wins even for widened slabs
        assert comm_tag("__shiftbuf_U__", 1, +1, widened=True) \
            .startswith("bufshift:")

    def test_tag_class_parses_and_defaults(self):
        assert tag_class("halo:U:d1:+1") == "halo"
        assert tag_class("rsd:U:d2:-1") == "rsd"
        assert tag_class("bufshift:X:d1:+1") == "bufshift"
        assert tag_class("ovl:legacy") == "other"
        assert tag_class("") == "other"

    def test_o4_traffic_is_halo_plus_rsd(self):
        by_class = profiled(level="O4").profile.totals[
            "messages_by_class"]
        assert by_class["halo"] > 0
        assert by_class["rsd"] > 0
        assert by_class["bufshift"] == 0
        assert by_class["other"] == 0

    def test_o0_traffic_is_all_bufshift(self):
        by_class = profiled(level="O0").profile.totals[
            "messages_by_class"]
        assert by_class["bufshift"] > 0
        assert by_class["halo"] == 0
        assert by_class["rsd"] == 0


class TestMatrix:
    def test_matrix_counts_match_report(self):
        result = profiled()
        profile = result.profile
        total = sum(map(sum, profile.pair_matrix(key="messages")))
        assert total + profile.totals["messages_by_class"].get(
            "allreduce", 0) <= result.report.messages
        # nine_point has no reductions: every message is in the log
        assert total == result.report.messages
        assert sum(map(sum, profile.pair_matrix(key="bytes"))) == \
            result.report.message_bytes

    def test_reduction_logs_allreduce_butterfly(self):
        """Reduction collectives appear in the matrix: ceil(log2 4) = 2
        rounds x 4 PEs x 8 bytes per SUM, and the matrix total still
        equals the report's message counter."""
        import numpy as np

        from repro.compiler import compile_hpf

        source = ("      REAL, DIMENSION(N,N) :: A\n"
                  "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
                  "      S = SUM(A)\n"
                  "      A = A + S * 0.001\n")
        compiled = compile_hpf(source, bindings={"N": 16}, level="O4",
                               outputs={"A"})
        machine = Machine(grid=(2, 2), keep_message_log=True)
        result = compiled.run(machine, inputs={"A": np.ones((16, 16))},
                              profile=True)
        by_class = result.profile.totals["messages_by_class"]
        assert by_class["allreduce"] == 8  # 2 rounds x 4 PEs
        assert result.profile.totals["bytes_by_class"]["allreduce"] \
            == 64
        total = sum(map(sum, result.profile.pair_matrix(
            key="messages")))
        assert total == result.report.messages

    def test_matrix_diagonal_is_empty(self):
        # self-sends are priced as copies, never logged as messages
        profile = profiled(grid=(2, 1)).profile
        m = profile.pair_matrix()
        for pe in range(profile.npes):
            assert m[pe][pe] == 0

    def test_neighbors_only_on_2x2(self):
        profile = profiled().profile
        m = profile.pair_matrix()
        # on a 2x2 grid every PE's traffic goes to grid neighbors only
        # (rank 0 <-> {1, 2}, never the diagonal partner 3)
        assert m[0][3] == 0 and m[3][0] == 0
        assert m[1][2] == 0 and m[2][1] == 0
        assert m[0][1] > 0 and m[0][2] > 0

    def test_all_classes_always_present(self):
        profile = profiled().profile
        assert set(profile.matrix) == set(MATRIX_CLASSES)
        for cls_matrix in profile.matrix.values():
            assert len(cls_matrix["messages"]) == profile.npes
            assert len(cls_matrix["bytes"]) == profile.npes


class TestTimeline:
    def test_phases_cover_the_report(self):
        result = profiled()
        profile = result.profile
        report = result.report
        for pe in range(profile.npes):
            ph = profile.phase_seconds(pe)
            assert set(ph) == set(PHASES)
            assert ph["comm"] == pytest.approx(
                report.pe_comm_times[pe])
            assert ph["copy"] == pytest.approx(
                report.pe_copy_times[pe])
            # compute is clamped >= 0 per op, so the sum can only
            # exceed the report's residual (never undershoot)
            residual = report.pe_times[pe] - report.pe_comm_times[pe] \
                - report.pe_copy_times[pe]
            assert ph["compute"] >= residual - 1e-12

    def test_segments_are_ordered_and_disjoint(self):
        profile = profiled(level="O0").profile
        for pe in range(profile.npes):
            t = 0.0
            for seg in profile.timeline[pe]:
                assert seg["t0"] == pytest.approx(t)
                assert seg["t1"] > seg["t0"]
                assert seg["phase"] in PHASES
                t = seg["t1"]

    def test_o0_timeline_has_copy_phase(self):
        profile = profiled(level="O0").profile
        assert profile.phase_seconds(0)["copy"] > 0

    def test_iterations_scale_the_timeline(self):
        one = profiled(iterations=1).profile.phase_seconds(0)
        two = profiled(iterations=2).profile.phase_seconds(0)
        assert two["comm"] == pytest.approx(2 * one["comm"])


class TestValidation:
    def test_rows_cover_comm_and_compute_ops(self):
        profile = profiled().profile
        rows = profile.validation["rows"]
        names = {r["name"] for r in rows}
        assert "overlap_shift" in names
        assert "loop_nest" in names
        for row in rows:
            assert row["modelled_s"] >= 0.0
            assert row["wall_s"] >= 0.0

    def test_summary_statistics_are_finite(self):
        val = profiled().profile.validation
        assert val["scale_wall_per_modelled"] > 0.0
        assert val["mape_pct"] >= 0.0


@pytest.fixture
def collectors(monkeypatch):
    """``(collector, execute span)`` of every profiled run condensed,
    with each recording the collector was handed kept on it as
    ``(open span, charges)``, in order."""
    seen = []
    real_from_run = CommProfile.from_run.__func__
    real_charge = ProfileCollector.charge

    def from_run(cls, machine, collector, run, *args, **kw):
        seen.append((collector, run))
        return real_from_run(cls, machine, collector, run, *args, **kw)

    def charge(self, charges):
        self.handed = getattr(self, "handed", [])
        self.handed.append((self.tracer.current, charges))
        real_charge(self, charges)

    monkeypatch.setattr(CommProfile, "from_run", classmethod(from_run))
    monkeypatch.setattr(ProfileCollector, "charge", charge)
    return seen


def op_spans(run):
    """The op spans under an ``execute`` span, in preorder."""
    return [span for span in run.walk() if span.kind == "op"]


def is_leaf(span) -> bool:
    return not any(child.kind == "op" for child in span.walk()
                   if child is not span)


#: (kernel, level, compile options) of the attribution cases: the named
#: kernels, reductions inside scalar assigns (cg), a time loop (jacobi)
#: and an overlapped region's hiding credit
ATTRIBUTION_CASES = [
    pytest.param(kernel, level, options,
                 id=f"{kernel}-{level or 'default'}"
                    + ("-overlap" if options else ""))
    for kernel, level, options in
    [(k, lv, {}) for k in NAMED_KERNELS for lv in ("O0", "O4")] + [
        ("jacobi", "O0", {}), ("jacobi", None, {}),
        ("cg", "O0", {}), ("cg", None, {}),
        ("nine_point", "O4", {"overlap_comm": True}),
        ("jacobi", "O4", {"overlap_comm": True}),
    ]]


def run_case(kernel, level, options):
    bindings = {"N": 16}
    if kernel in ("jacobi", "cg"):
        bindings["NITER"] = 3
    return run_kernel(kernel, bindings=bindings, level=level,
                      profile=True, **options)


class TestSelfTimeAttribution:
    @pytest.mark.parametrize("kernel,level,options", ATTRIBUTION_CASES)
    def test_leaf_samples_are_their_recordings_row_sums(
            self, kernel, level, options, collectors):
        """An op span that replays one recording and has no op below it
        is credited exactly that recording's per-PE row sums — no
        difference of running totals in between."""
        result = run_case(kernel, level, options)
        (collector, run), = collectors
        assert all(span.kind == "op" for span, _ in collector.handed)
        handed: dict[int, list] = {}
        for span, charges in collector.handed:
            handed.setdefault(id(span), []).append(charges)
        checked = 0
        for span in op_spans(run):
            own = handed.get(id(span), [])
            if not is_leaf(span) or len(own) != 1:
                continue
            charges, = own
            credit = collector.credits[id(span)]
            for mine, sums in zip(credit, charges.pe_sums()):
                pad = [0.0] * (len(mine) - len(sums))
                assert mine == list(sums) + pad, span.name
            assert credit[3:] == [charges.messages, charges.message_bytes]
            checked += 1
        assert checked > 0
        assert sum(credit[3] for credit in collector.credits.values()) \
            == result.report.messages

    @pytest.mark.parametrize("kernel,level,options", ATTRIBUTION_CASES)
    def test_samples_reconstruct_the_report(self, kernel, level, options,
                                            collectors):
        """Summed over every op span, the unclamped credited per-PE
        times are the report's rows: containers (DO loops, IFs,
        overlapped regions) own only what they charge, reductions inside
        a scalar assign belong to it, and a hiding credit to its
        region."""
        result = run_case(kernel, level, options)
        (collector, _), = collectors
        report = result.report
        for k, row in enumerate((report.pe_times, report.pe_comm_times,
                                 report.pe_copy_times)):
            for pe, total in enumerate(row):
                assert sum(credit[k][pe]
                           for credit in collector.credits.values()) == \
                    pytest.approx(total, rel=1e-12, abs=1e-18)

    @pytest.mark.parametrize("kernel,level,options", ATTRIBUTION_CASES)
    def test_the_handed_recordings_replay_to_the_report(
            self, kernel, level, options, collectors):
        """Replay is the one path into the report: every recording the
        observer was handed, replayed in order onto a fresh report,
        rebuilds the run's per-PE time rows bit for bit — an overlapped
        region's hiding credit included."""
        result = run_case(kernel, level, options)
        (collector, _), = collectors
        network = Network(collector.handed[0][1].model, CostReport())
        for _, charges in collector.handed:
            network.replay(charges)
        for row in ("pe_times", "pe_comm_times", "pe_copy_times"):
            assert getattr(network.report, row) == \
                getattr(result.report, row), row

    def test_overlap_credit_lands_on_the_region(self, collectors):
        run_case("nine_point", "O4", {"overlap_comm": True})
        (collector, run), = collectors
        region, = [s for s in op_spans(run) if s.name == "overlapped"]
        nest, credit = [c for span, c in collector.handed if span is region]
        # the split nest's recording, then the per-run hiding credit:
        # negated pe_times addends only
        assert set(credit.rows) == {"pe_times"}
        assert all(v <= 0.0 for v in credit.rows["pe_times"][1])
        # the credit makes the region's own time less than its nest's
        assert any(t < n for t, n in zip(collector.credits[id(region)][0],
                                         nest.pe_sums()[0]))

    def test_a_second_run_sums_no_row(self, monkeypatch):
        """Row sums and dense layers are kept on the schedule's
        recording: a second profiled run of the same plan, on a new
        machine, compiles neither."""
        from repro.compiler.cache import PlanCache
        from repro.machine.network import Charges

        def spy(method, memo):
            real = getattr(Charges, method)

            def compiled_here(self):
                if getattr(self, memo) is None:
                    compiled.append(method)
                return real(self)
            monkeypatch.setattr(Charges, method, compiled_here)

        for kernel, level in (("cg", None), ("nine_point", "O0"),
                              ("purdue9", "O4")):
            cache = PlanCache()     # the second run gets the same plan

            def run():
                return run_case(kernel, level, {"cache": cache})

            first = run()
            compiled: list[str] = []
            spy("layers", "_layers")
            spy("pe_sums", "_sums")
            second = run()
            monkeypatch.undo()
            assert compiled == [], kernel
            assert second.profile.to_dict()["timeline"] == \
                first.profile.to_dict()["timeline"]

    @pytest.mark.parametrize("kernel", NAMED_KERNELS)
    @pytest.mark.parametrize("level", ("O0", "O4"))
    def test_self_times_reconstruct_the_report(self, kernel, level):
        """Summing every op's self per-PE time reconstructs the cost
        report exactly — containers (DO loops, overlapped regions) own
        only the cost they charge directly, so nothing double-counts.
        (These kernels have no reductions and no hidden-credit clamp.)
        """
        result = profiled(kernel=kernel, level=level)
        profile = result.profile
        report = result.report
        tl_total = [sum(s["t1"] - s["t0"] for s in profile.timeline[pe])
                    for pe in range(profile.npes)]
        for pe in range(profile.npes):
            assert tl_total[pe] == pytest.approx(report.pe_times[pe])


class TestBackendEquivalence:
    @pytest.mark.parametrize("kernel", NAMED_KERNELS)
    @pytest.mark.parametrize("level", LEVELS)
    def test_matrices_bit_identical(self, kernel, level):
        profiles = {}
        logs = {}
        for backend in ("perpe", "vectorized"):
            result = profiled(kernel=kernel, level=level,
                              backend=backend)
            profiles[backend] = result.profile
        p, v = profiles["perpe"], profiles["vectorized"]
        assert p.matrix == v.matrix
        assert p.totals["messages_by_class"] == \
            v.totals["messages_by_class"]
        assert p.totals["bytes_by_class"] == v.totals["bytes_by_class"]

    def test_message_logs_identically_tagged(self):
        logs = {}
        for backend in ("perpe", "vectorized"):
            machine = Machine(grid=(2, 2), keep_message_log=True)
            run_kernel("nine_point", bindings={"N": 16}, level="O4",
                       backend=backend, machine=machine)
            logs[backend] = sorted(
                (m.src, m.dst, m.nbytes, m.tag)
                for m in machine.network.log)
        assert logs["perpe"] == logs["vectorized"]

    def test_timelines_identical(self):
        p = profiled(backend="perpe").profile
        v = profiled(backend="vectorized").profile
        assert p.timeline == v.timeline


class TestSerialization:
    def test_dict_round_trip_is_exact(self):
        profile = profiled().profile
        back = CommProfile.from_dict(profile.to_dict())
        assert back.to_dict() == profile.to_dict()
        assert back.grid == profile.grid
        assert back.matrix == profile.matrix

    def test_json_round_trip_is_exact(self):
        profile = profiled(level="O0").profile
        back = profile_from_json(profile_to_json(profile))
        assert back.to_dict() == profile.to_dict()
        # a second trip is a fixed point
        assert profile_to_json(back) == profile_to_json(profile)

    def test_json_document_is_versioned(self):
        doc = json.loads(profile_to_json(profiled().profile))
        assert doc["type"] == "comm_profile"
        assert doc["version"] == 1

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            profile_from_json('{"type": "trace", "version": 2}')
        with pytest.raises(ValueError):
            profile_from_json(
                '{"type": "comm_profile", "version": 99, "profile": {}}')
        for text in ("[1]", '"comm_profile"'):   # not an object
            with pytest.raises(ValueError, match="not a comm_profile"):
                profile_from_json(text)

    def test_file_round_trip(self, tmp_path):
        profile = profiled().profile
        path = tmp_path / "profile.json"
        write_profile(profile, str(path))
        back = read_profile(str(path))
        assert back.to_dict() == profile.to_dict()


class TestChromeTrace:
    def test_one_track_per_pe(self):
        profile = profiled(grid=(2, 2)).profile
        doc = chrome_trace(profile)
        events = doc["traceEvents"]
        thread_names = {e["tid"]: e["args"]["name"] for e in events
                        if e.get("name") == "thread_name"
                        and e["pid"] == 1}
        assert set(thread_names) == {0, 1, 2, 3}
        assert thread_names[0].startswith("PE 0")

    def test_events_carry_phase_categories(self):
        doc = chrome_trace(profiled().profile)
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert cats <= set(PHASES)
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                assert e["ts"] >= 0.0
                assert e["dur"] > 0.0

    def test_compile_track_from_tracer(self):
        tracer = Tracer()
        result = run_kernel("nine_point", bindings={"N": 16},
                            level="O4", tracer=tracer, profile=True)
        doc = chrome_trace(result.profile, tracer=tracer)
        wall_events = [e for e in doc["traceEvents"]
                       if e["pid"] == 0 and e["ph"] == "X"]
        names = {e["name"] for e in wall_events}
        assert "compile" in names
        assert any(n.startswith("pass:") for n in names)
        # stable span ids ride along in args
        ids = {e["args"]["id"] for e in wall_events}
        assert "compile#0" in ids
        # the op spans the profile was read from, one per validation row
        # or more (rows skip ops that cost nothing)
        ops = [e for e in wall_events if e["cat"] == "op"]
        assert ops
        assert all(row["op"] < len(ops)
                   for row in result.profile.validation["rows"])

    def test_golden_deterministic_output(self):
        """Modelled time is deterministic, so two runs of the same
        kernel serialize to the byte-identical Chrome document."""
        docs = [json.dumps(chrome_trace(profiled().profile),
                           sort_keys=True) for _ in range(2)]
        assert docs[0] == docs[1]

    def test_loads_as_json_object_format(self, tmp_path):
        from repro.obs import write_chrome_trace
        profile = profiled().profile
        path = tmp_path / "chrome.json"
        write_chrome_trace(profile, str(path))
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"


class TestCollectorErrors:
    def test_requires_message_log(self):
        machine = Machine(grid=(2, 2), keep_message_log=False)
        with pytest.raises(MachineError, match="keep_message_log"):
            ProfileCollector(machine, Tracer())

    def test_execute_profile_requires_message_log(self):
        machine = Machine(grid=(2, 2), keep_message_log=False)
        with pytest.raises(MachineError, match="keep_message_log"):
            run_kernel("nine_point", bindings={"N": 16},
                       machine=machine, profile=True)

    def test_profile_off_by_default(self):
        result = run_kernel("nine_point", bindings={"N": 16})
        assert result.profile is None


class TestCommFreeValidation:
    """Regression: a plan that models zero seconds (nothing to
    communicate or charge) used to divide by ``sum_modelled == 0`` in
    the validation summary.  The scale and error statistics must be
    reported as absent — ``None`` in the document, ``n/a`` in the text
    report — never as a crash or a bogus 0.0."""

    def _comm_free(self):
        from repro.machine.cost_model import CostModel
        machine = Machine(
            grid=(1, 1), keep_message_log=True,
            cost_model=CostModel(flop=0.0, copy_elem=0.0, mem_load=0.0,
                                 cached_load=0.0, store=0.0,
                                 loop_overhead=0.0))
        return run_kernel("five_point", bindings={"N": 12}, level="O4",
                          machine=machine, profile=True)

    def test_scale_and_mape_absent(self):
        val = self._comm_free().profile.validation
        assert val["scale_wall_per_modelled"] is None
        assert val["mape_pct"] is None
        assert val["rows"], "wall-clock rows should still be recorded"

    def test_text_report_prints_na(self):
        from repro.analysis.report import describe_profile
        text = describe_profile(self._comm_free().profile)
        assert "n/a (no modelled time)" in text
        assert "weighted abs error" not in text

    def test_json_round_trip_preserves_none(self):
        profile = self._comm_free().profile
        revived = profile_from_json(profile_to_json(profile))
        assert revived.validation["scale_wall_per_modelled"] is None
        assert revived.validation["mape_pct"] is None

    def test_modelled_time_keeps_statistics(self):
        # the normal path still produces a positive scale (guards the
        # fix from over-reaching)
        val = profiled().profile.validation
        assert val["scale_wall_per_modelled"] > 0.0
        assert val["mape_pct"] >= 0.0
