"""Run-ledger tests: atomic concurrent appends, corrupt-line recovery,
fingerprint keying, and schema versioning."""

import json
import multiprocessing as mp
import os

import pytest

from repro.machine import Machine
from repro.obs.ledger import LEDGER_SCHEMA, RunLedger


@pytest.fixture
def path(tmp_path):
    return tmp_path / "ledger.jsonl"


class TestAppend:
    def test_basic_record(self, path):
        ledger = RunLedger(path)
        rec = ledger.append(fingerprint="fp1", plan_key="abc",
                            backend="perpe",
                            factors={"level": "O4"},
                            metrics={"type": "metrics", "version": 1,
                                     "metrics": []},
                            timestamp=123.0)
        assert rec["type"] == "run" and rec["version"] == 1
        assert rec["timestamp"] == 123.0
        got = ledger.records()
        assert got == [rec]

    def test_machine_wins_over_fingerprint(self, path):
        machine = Machine(grid=(2, 2))
        ledger = RunLedger(path)
        rec = ledger.append(machine=machine, fingerprint="ignored")
        assert rec["fingerprint"] == machine.fingerprint()

    def test_missing_fingerprint_raises(self, path):
        with pytest.raises(ValueError, match="fingerprint"):
            RunLedger(path).append(plan_key="x")

    def test_creates_parent_dirs(self, tmp_path):
        nested = tmp_path / "a" / "b" / "ledger.jsonl"
        RunLedger(nested).append(fingerprint="fp")
        assert nested.exists()

    def test_timestamp_defaults_to_now(self, path):
        rec = RunLedger(path).append(fingerprint="fp")
        assert rec["timestamp"] > 1.5e9

    def test_extra_fields(self, path):
        ledger = RunLedger(path)
        ledger.append(fingerprint="fp", extra={"grid": "2x2"})
        assert ledger.records()[0]["extra"] == {"grid": "2x2"}

    def test_short_write_finishes_the_record(self, path, monkeypatch):
        """``os.write`` may write fewer bytes than asked; a record cut
        there would be lost to the next append's torn-tail heal."""
        ledger = RunLedger(path)
        ledger.append(fingerprint="fp", plan_key="first")
        real_write = os.write

        def half_write(fd, data):
            return real_write(fd, bytes(data[:max(1, len(data) // 2)]))

        monkeypatch.setattr(os, "write", half_write)
        ledger.append(fingerprint="fp", plan_key="second")
        monkeypatch.undo()
        ledger.append(fingerprint="fp", plan_key="third")
        assert [r["plan_key"] for r in ledger.records()] == [
            "first", "second", "third"]
        assert ledger.corrupt_lines == 0

    def test_write_without_progress_raises(self, path, monkeypatch):
        monkeypatch.setattr(os, "write", lambda fd, data: 0)
        with pytest.raises(OSError, match="no progress"):
            RunLedger(path).append(fingerprint="fp")


class TestRead:
    def test_missing_file_is_empty(self, path):
        ledger = RunLedger(path)
        assert ledger.records() == []
        assert len(ledger) == 0
        assert ledger.latest() is None

    def test_corrupt_trailing_line_recovery(self, path):
        ledger = RunLedger(path)
        ledger.append(fingerprint="fp", plan_key="k1")
        ledger.append(fingerprint="fp", plan_key="k2")
        # simulate a writer killed mid-write: torn trailing line
        with open(path, "a") as f:
            f.write('{"type": "run", "version": 1, "fi')
        records = ledger.records()
        assert [r["plan_key"] for r in records] == ["k1", "k2"]
        assert ledger.corrupt_lines == 1
        # later appends land on a fresh line and stay readable
        ledger.append(fingerprint="fp", plan_key="k3")
        records = ledger.records()
        assert [r["plan_key"] for r in records] == ["k1", "k2", "k3"]
        assert ledger.corrupt_lines == 1

    def test_junk_and_non_dict_lines_skipped(self, path):
        path.write_text('not json\n[1, 2]\n"str"\n'
                        '{"type": "other", "version": 1}\n')
        ledger = RunLedger(path)
        assert ledger.records() == []
        assert ledger.corrupt_lines == 4

    def test_unknown_version_skipped_not_error(self, path):
        ledger = RunLedger(path)
        ledger.append(fingerprint="fp", plan_key="old")
        future = dict(LEDGER_SCHEMA, version=999, fingerprint="fp",
                      plan_key="new")
        with open(path, "a") as f:
            f.write(json.dumps(future) + "\n")
        records = ledger.records()
        assert [r["plan_key"] for r in records] == ["old"]
        assert ledger.skipped_versions == 1
        assert ledger.corrupt_lines == 0

    def test_blank_lines_ignored(self, path):
        ledger = RunLedger(path)
        ledger.append(fingerprint="fp")
        with open(path, "a") as f:
            f.write("\n   \n")
        assert len(ledger.records()) == 1
        assert ledger.corrupt_lines == 0


class TestFingerprintKeying:
    def test_filtering_and_counts(self, path):
        ledger = RunLedger(path)
        for i in range(3):
            ledger.append(fingerprint="m1", plan_key=f"a{i}",
                          timestamp=float(i))
        ledger.append(fingerprint="m2", plan_key="b0", timestamp=10.0)
        assert len(ledger.records("m1")) == 3
        assert len(ledger.records("m2")) == 1
        assert ledger.records("m3") == []
        assert ledger.fingerprints() == {"m1": 3, "m2": 1}
        assert ledger.latest("m1")["plan_key"] == "a2"
        assert ledger.latest()["plan_key"] == "b0"

    def test_same_machine_same_key(self, path):
        ledger = RunLedger(path)
        ledger.append(machine=Machine(grid=(2, 2)))
        ledger.append(machine=Machine(grid=(2, 2)))
        ledger.append(machine=Machine(grid=(4, 1)))
        counts = ledger.fingerprints()
        assert sorted(counts.values()) == [1, 2]


class TestReaderWriterRace:
    """Readers racing a live O_APPEND writer observe whole lines only,
    and a torn tail left by a dead writer is skipped exactly once —
    one corrupt line, regardless of how many healed records follow or
    how many times the file is re-read."""

    def test_reader_racing_live_writer_sees_whole_records_only(
            self, path):
        total = 120
        method = "fork" if "fork" in mp.get_all_start_methods() \
            else "spawn"
        ctx = mp.get_context(method)
        writer = ctx.Process(target=_append_worker,
                             args=(str(path), 0, total))
        writer.start()
        try:
            import time
            reader = RunLedger(path)
            observed = 0
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                records = reader.records()
                # every record a mid-write read returns is complete
                # and well-formed; a partially flushed line may hide
                # the newest record but can never corrupt the view
                assert reader.corrupt_lines == 0
                assert len(records) >= observed, \
                    "records went backwards under a racing writer"
                observed = len(records)
                for record in records:
                    assert record["fingerprint"] == "w0"
                    assert record["metrics"]["pad"]
                if observed >= total:
                    break
        finally:
            writer.join(timeout=30)
        assert writer.exitcode == 0
        assert len(RunLedger(path).records()) == total

    def test_torn_tail_skipped_exactly_once(self, path):
        ledger = RunLedger(path)
        ledger.append(fingerprint="fp", plan_key="before")
        # a writer died mid-write: unterminated, unparseable tail
        with open(path, "ab") as f:
            f.write(b'{"type": "run", "version": 1, "fingerp')
        reader = RunLedger(path)
        assert [r["plan_key"] for r in reader.records()] == ["before"]
        assert reader.corrupt_lines == 1

        # healing appends start fresh lines; the torn fragment stays
        # one corrupt line, not one per subsequent record or re-read
        ledger.append(fingerprint="fp", plan_key="after-1")
        ledger.append(fingerprint="fp", plan_key="after-2")
        for _ in range(3):
            records = reader.records()
            assert [r["plan_key"] for r in records] == \
                ["before", "after-1", "after-2"]
            assert reader.corrupt_lines == 1


    @pytest.mark.parametrize("cut", [-1, 40])
    def test_append_and_read_between_a_payload_and_its_newline(
            self, path, monkeypatch, cut):
        """The race, made deterministic: a writer whose record reaches
        the file in two pieces — payload then newline (``cut=-1``), or
        split mid-payload — which is what a contended kernel write looks
        like from outside, with a second appender and a reader acting in
        between.  Unlocked, the appender "healed" the in-flight record
        with a newline and the reader counted it corrupt; now
        check-and-append and read exclude each other."""
        import threading
        mid_write, interposed = threading.Event(), threading.Event()
        real_write = os.write

        def split_write(fd, data):
            if threading.current_thread() is not writer:
                return real_write(fd, data)
            real_write(fd, data[:cut])
            mid_write.set()
            interposed.wait(timeout=0.5)  # a lock holds the others off
            real_write(fd, data[cut:])
            return len(data)

        ledger = RunLedger(path)
        ledger.append(fingerprint="fp", plan_key="first")
        writer = threading.Thread(
            target=lambda: RunLedger(path).append(
                fingerprint="fp", plan_key="in-flight"))
        monkeypatch.setattr(os, "write", split_write)
        writer.start()
        assert mid_write.wait(timeout=10)
        reader = RunLedger(path)
        seen = [r["plan_key"] for r in reader.records()]
        assert reader.corrupt_lines == 0
        assert seen in (["first"], ["first", "in-flight"])
        ledger.append(fingerprint="fp", plan_key="second")
        interposed.set()
        writer.join(timeout=10)
        assert [r["plan_key"] for r in reader.records()] == \
            ["first", "in-flight", "second"]
        assert reader.corrupt_lines == 0
        assert b"\n\n" not in path.read_bytes()  # no "healing" blank


def _append_worker(path_str: str, wid: int, n: int) -> None:
    ledger = RunLedger(path_str)
    for i in range(n):
        ledger.append(fingerprint=f"w{wid}", plan_key=f"{wid}:{i}",
                      metrics={"pad": "x" * 512})


class TestConcurrentAppends:
    def test_multiprocess_appends_one_durable_line_each(self, path):
        """N processes x M appends each -> N*M whole lines, no torn or
        spliced records (single O_APPEND write per record)."""
        nproc, per = 4, 25
        method = "fork" if "fork" in mp.get_all_start_methods() \
            else "spawn"
        ctx = mp.get_context(method)
        procs = [ctx.Process(target=_append_worker,
                             args=(str(path), wid, per))
                 for wid in range(nproc)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)

        ledger = RunLedger(path)
        records = ledger.records()
        assert ledger.corrupt_lines == 0
        assert len(records) == nproc * per
        keys = {r["plan_key"] for r in records}
        assert keys == {f"{w}:{i}" for w in range(nproc)
                        for i in range(per)}
        counts = ledger.fingerprints()
        assert counts == {f"w{w}": per for w in range(nproc)}
        # every raw line is intact JSON (no interleaving inside lines)
        raw = path.read_text().splitlines()
        assert len(raw) == nproc * per
        for line in raw:
            json.loads(line)
