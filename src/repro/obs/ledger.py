"""Append-only JSONL run ledger keyed by ``Machine.fingerprint()``.

The persistence seam between measurement and tuning: every recorded run
appends one JSON line holding the machine fingerprint, the plan key,
the backend, the run's factors (its level), and a metrics snapshot
(usually :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`).  The autotuner
(ROADMAP item 5) filters the ledger by the current machine's
fingerprint to recover every measured configuration; the service
(item 3) reads the tail for scraping.

Durability model:

* **Atomic appends.**  Each record is serialized to one line and
  written on an ``O_APPEND`` descriptor under the lock below, so
  concurrent writers (service processes, parallel experiment drivers)
  interleave whole lines, never splice partial ones.  A short
  ``os.write`` is continued until every byte is out; one that makes no
  progress raises.
* **Appends and reads exclude each other.**  The write is atomic in
  *offset*, not in *visibility*: under load another process can see a
  record's bytes before its trailing newline.  So an appender holds an
  exclusive ``flock`` over its torn-tail probe and its write, and a
  reader a shared one over its read: neither ever observes a live
  writer's half-landed record.
* **Corrupt-line tolerance.**  A reader skips any line that does not
  parse as a versioned record (a writer killed mid-``write`` can leave
  at most one truncated trailing line); the skip count is surfaced on
  :attr:`RunLedger.corrupt_lines`.  An appender that finds the file
  ending without a newline (a torn tail — under the lock, so its
  writer is dead) prepends one, so its record starts on a fresh line
  and only the torn line stays unreadable — the ledger self-heals on
  the next append.
* **Schema-versioned.**  Records carry ``{"type": "run", "version"}``;
  unknown versions are skipped (counted in
  :attr:`RunLedger.skipped_versions`), not errors, so old readers
  survive new writers.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

#: Header fields of every ledger record.
LEDGER_SCHEMA = {"type": "run", "version": 1}

#: Versions :meth:`RunLedger.records` understands.
_READABLE_LEDGER_VERSIONS = (1,)


try:  # POSIX; elsewhere appends and reads go unlocked, as before
    from fcntl import LOCK_EX, LOCK_SH, flock
except ImportError:  # pragma: no cover
    LOCK_EX = LOCK_SH = 0

    def flock(fd: int, how: int) -> None:
        return None


def _torn_tail(fd: int) -> bool:
    """Whether the file behind ``fd`` ends without a newline (a torn
    last line)."""
    size = os.fstat(fd).st_size
    return size > 0 and os.pread(fd, 1, size - 1) != b"\n"


class RunLedger:
    """One JSONL ledger file of measured runs."""

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = Path(path)
        #: Unparseable lines seen by the last read (torn tails, junk).
        self.corrupt_lines = 0
        #: Records with an unreadable schema version in the last read.
        self.skipped_versions = 0

    # -- writing ------------------------------------------------------------
    def append(self, *, fingerprint: str | None = None, machine=None,
               plan_key: str = "", backend: str = "",
               factors: dict | None = None,
               metrics: dict | None = None,
               extra: dict | None = None,
               timestamp: float | None = None) -> dict:
        """Append one run record; returns the record written.

        Pass either a ``fingerprint`` string or the :class:`Machine`
        the run executed on.  ``metrics`` is any JSON-serializable
        snapshot (typically ``registry.to_dict()``); ``factors`` the
        tunable knobs of the run (today: its level; records written
        by earlier commits also carry tile/unroll/jit/codegen).
        """
        if machine is not None:
            fingerprint = machine.fingerprint()
        if not fingerprint:
            raise ValueError(
                "ledger record needs a machine fingerprint (pass "
                "fingerprint=... or machine=...)")
        record = dict(LEDGER_SCHEMA)
        record.update({
            "timestamp": float(time.time() if timestamp is None
                               else timestamp),
            "fingerprint": fingerprint,
            "plan_key": plan_key,
            "backend": backend,
            "factors": dict(factors or {}),
            "metrics": metrics if metrics is not None else {},
        })
        if extra:
            record["extra"] = dict(extra)
        line = json.dumps(record, sort_keys=True)
        data = (line + "\n").encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path,
                     os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            flock(fd, LOCK_EX)  # released by close
            if _torn_tail(fd):
                # a writer died mid-write: start this record on a
                # fresh line
                data = b"\n" + data
            while data:
                written = os.write(fd, data)
                if written <= 0:
                    raise OSError(
                        f"ledger {self.path}: write made no progress")
                data = data[written:]
        finally:
            os.close(fd)
        return record

    # -- reading ------------------------------------------------------------
    def records(self, fingerprint: str | None = None) -> list[dict]:
        """Every readable record, oldest first, optionally filtered to
        one machine fingerprint.  Corrupt lines and unknown schema
        versions are skipped and counted, never raised."""
        self.corrupt_lines = 0
        self.skipped_versions = 0
        try:
            with open(self.path) as f:
                flock(f.fileno(), LOCK_SH)  # no appender is mid-record
                text = f.read()
        except (FileNotFoundError, OSError):
            return []
        out = []
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                self.corrupt_lines += 1
                continue
            if not isinstance(record, dict) or \
                    record.get("type") != LEDGER_SCHEMA["type"]:
                self.corrupt_lines += 1
                continue
            if record.get("version") not in _READABLE_LEDGER_VERSIONS:
                self.skipped_versions += 1
                continue
            if fingerprint is not None and \
                    record.get("fingerprint") != fingerprint:
                continue
            out.append(record)
        return out

    def fingerprints(self) -> dict[str, int]:
        """Record count per machine fingerprint."""
        counts: dict[str, int] = {}
        for record in self.records():
            fp = record.get("fingerprint", "")
            counts[fp] = counts.get(fp, 0) + 1
        return counts

    def latest(self, fingerprint: str | None = None) -> dict | None:
        """The newest readable record (for one machine, if given)."""
        records = self.records(fingerprint)
        return records[-1] if records else None

    def __len__(self) -> int:
        return len(self.records())
