"""Chrome-trace export degradation tests: op-less profiles, truncated
timeline rows, field-less worker events, and a worker-less slab
backend's export path must all yield valid trace documents, never
crash."""

import json

import pytest

from repro.kernels import run_kernel
from repro.obs import CommProfile, chrome_trace
from repro.obs.export import EXEC_PID, WORKERS_PID
from repro.obs.profile import MATRIX_CLASSES


def _empty_matrix(npes):
    return {c: {"messages": [[0] * npes for _ in range(npes)],
                "bytes": [[0] * npes for _ in range(npes)]}
            for c in MATRIX_CLASSES}


def make_profile(npes=4, timeline=None, worker_tracks=None):
    return CommProfile(
        grid=(2, 2), npes=npes, backend="perpe",
        matrix=_empty_matrix(npes),
        timeline=timeline if timeline is not None
        else [[] for _ in range(npes)],
        validation={"rows": [], "scale_wall_per_modelled": None,
                    "mape_pct": None},
        totals={"messages": 0, "message_bytes": 0, "copies": 0,
                "copy_elements": 0, "modelled_time_s": 0.0,
                "wall_s": 0.0,
                "messages_by_class": {c: 0 for c in MATRIX_CLASSES},
                "bytes_by_class": {c: 0 for c in MATRIX_CLASSES}},
        worker_tracks=worker_tracks)


def assert_valid_trace(doc, npes=4):
    assert set(doc) >= {"traceEvents", "displayTimeUnit"}
    json.dumps(doc)  # must be JSON-serializable as-is
    meta_tids = {e["tid"] for e in doc["traceEvents"]
                 if e["pid"] == EXEC_PID and e["ph"] == "M"
                 and e["name"] == "thread_name"}
    assert meta_tids == set(range(npes))
    for e in doc["traceEvents"]:
        if e["ph"] == "X":
            assert e["dur"] >= 0.0


class TestDegradation:
    def test_opless_profile(self):
        """Zero iterations / comm-free plan: metadata-only tracks."""
        doc = chrome_trace(make_profile())
        assert_valid_trace(doc)
        assert not [e for e in doc["traceEvents"] if e["ph"] == "X"]

    def test_empty_timeline_list(self):
        doc = chrome_trace(make_profile(timeline=[]))
        assert_valid_trace(doc)

    def test_truncated_timeline_rows(self):
        """A deserialized doc may carry fewer rows than PEs."""
        timeline = [[{"t0": 0.0, "t1": 1.0, "phase": "comm",
                      "op": 0, "name": "shift"}]]
        doc = chrome_trace(make_profile(timeline=timeline))
        assert_valid_trace(doc)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1 and slices[0]["tid"] == 0

    def test_missing_segment_fields(self):
        doc = chrome_trace(make_profile(timeline=[[{}], [], [], []]))
        assert_valid_trace(doc)
        (seg,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert seg["name"] == "?" and seg["dur"] == 0.0

    def test_negative_duration_clamped(self):
        timeline = [[{"t0": 5.0, "t1": 1.0, "phase": "comm",
                      "op": 0, "name": "x"}], [], [], []]
        (seg,) = [e for e in chrome_trace(
            make_profile(timeline=timeline))["traceEvents"]
            if e["ph"] == "X"]
        assert seg["dur"] == 0.0

    def test_worker_tracks_missing_fields(self):
        tracks = [{"events": [{}]},  # no worker id, no pes
                  {"worker": 1, "pes": [1, 3],
                   "events": [{"name": "nest", "t0": 0.0, "t1": -1.0}]}]
        doc = chrome_trace(make_profile(worker_tracks=tracks))
        assert_valid_trace(doc)
        wx = [e for e in doc["traceEvents"]
              if e["pid"] == WORKERS_PID and e["ph"] == "X"]
        assert len(wx) == 2
        assert all(e["dur"] >= 0.0 for e in wx)

    def test_round_trip_then_export(self):
        """to_dict -> from_dict -> chrome_trace, worker_tracks=None
        omitted from the doc along the way."""
        profile = make_profile()
        revived = CommProfile.from_dict(profile.to_dict())
        assert revived.worker_tracks is None
        assert_valid_trace(chrome_trace(revived))


class TestRealBackends:
    def test_slab_backend_export(self):
        """A slab backend without workers (worker_tracks=None) must
        export the same PE tracks as perpe — regression for the export
        path the CLI --chrome flag drives."""
        result = run_kernel("five_point", grid=(2, 2),
                            bindings={"N": 8}, backend="vectorized",
                            profile=True)
        assert result.profile.worker_tracks is None
        doc = chrome_trace(result.profile)
        assert_valid_trace(doc)
        assert not [e for e in doc["traceEvents"]
                    if e["pid"] == WORKERS_PID]
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"]

    def test_parallel_backend_worker_tracks(self):
        """One measured track per worker thread: both carry a stripe of
        the (forcibly striped) nest; left whole, the nest is worker 0's
        and worker 1 keeps an empty, named track."""
        from repro.testing import forced_stripes

        def tids(result, phase):
            doc = chrome_trace(result.profile)
            assert_valid_trace(doc)
            return {e["tid"] for e in doc["traceEvents"]
                    if e["pid"] == WORKERS_PID and e["ph"] == phase}

        job = dict(grid=(2, 2), bindings={"N": 8}, backend="parallel",
                   workers=2, profile=True)
        with forced_stripes():
            assert tids(run_kernel("five_point", **job), "X") == {0, 1}
        whole = run_kernel("five_point", **job)
        assert tids(whole, "X") == {0}
        assert tids(whole, "M") == {0, 1}

    def test_zero_iteration_run_exports(self):
        result = run_kernel("five_point", grid=(2, 2),
                            bindings={"N": 8}, iterations=0,
                            profile=True)
        assert_valid_trace(chrome_trace(result.profile))
