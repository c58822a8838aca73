"""The SQLite-backed persistent run store.

One :class:`RunStore` file accumulates every result a machine ever computes:

* the ``runs`` table holds one row per distinct ``(coordinate, payload)``
  pair: the *coordinate* key (see :mod:`repro.store.keys`) addresses what
  was executed, the *record id* additionally hashes the result payload.
  Incremental execution looks up the **latest** record at a coordinate
  (re-running the same configuration is a lookup, not a computation), while
  snapshots reference exact record ids — so re-running a grid after a code
  change appends new rows instead of silently rewriting the records an
  older snapshot points at;
* the ``campaigns`` table holds campaign *snapshots*: the campaign spec plus
  the grid-ordered list of record ids, enough to reassemble the exact
  :class:`~repro.campaign.results.CampaignResult` (byte-identical
  ``to_json()``) without re-executing anything.

The store is stdlib-only (``sqlite3``) and thread-safe: a single connection
guarded by an ``RLock``, which the serving layer's request threads share.
Writes are transactional per batch, so a campaign's records land atomically.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from ..campaign.results import CampaignResult, RunRecord
from ..campaign.spec import RunSpec
from ..obs import REGISTRY
from .keys import campaign_key, run_coordinate, run_key

#: Bumped when the table layout changes incompatibly.
STORE_SCHEMA_VERSION = 1

_META_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    record_id         TEXT PRIMARY KEY,
    coord_key         TEXT NOT NULL,
    model             TEXT NOT NULL,
    model_fingerprint TEXT NOT NULL,
    scheme            INTEGER NOT NULL,
    case_name         TEXT NOT NULL,
    samples           INTEGER NOT NULL,
    sut_seed          INTEGER NOT NULL,
    case_seed         INTEGER NOT NULL,
    fault_plan        TEXT,
    mutant            TEXT,
    system            TEXT,
    passed            INTEGER NOT NULL,
    violations        INTEGER NOT NULL,
    timeouts          INTEGER NOT NULL,
    spec_json         TEXT NOT NULL,
    r_json            TEXT NOT NULL,
    m_json            TEXT,
    created_at        TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_coord ON runs (coord_key);
CREATE INDEX IF NOT EXISTS idx_runs_shape ON runs (scheme, case_name, model);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id   TEXT PRIMARY KEY,
    name          TEXT NOT NULL,
    size          INTEGER NOT NULL,
    spec_json     TEXT NOT NULL,
    run_keys_json TEXT NOT NULL,
    created_at    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_campaigns_name ON campaigns (name);
CREATE TABLE IF NOT EXISTS run_timings (
    record_id TEXT PRIMARY KEY,
    elapsed_s REAL NOT NULL,
    codegen_s REAL,
    execute_s REAL,
    analyze_s REAL
);
CREATE TABLE IF NOT EXISTS campaign_progress (
    name          TEXT PRIMARY KEY,
    snapshot_json TEXT NOT NULL,
    updated_at    TEXT NOT NULL
);
"""


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _index_free_spec_json(spec: RunSpec) -> str:
    payload = spec.to_dict()
    payload.pop("index")
    payload.pop("label")
    return json.dumps(payload, sort_keys=True)


class StoreError(Exception):
    """A run-store invariant was violated (bad schema, unknown snapshot, ...)."""


class RunStore:
    """Content-addressed persistence for campaign runs and snapshots."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        connection = None
        try:
            # One shared connection: request-handler threads of the serving
            # layer funnel through the lock, which SQLite's serialized mode
            # tolerates.  Opening it is inside the handler: a path SQLite
            # cannot open (a missing directory, a directory) is a StoreError.
            connection = self._connection = sqlite3.connect(
                str(self.path), check_same_thread=False
            )
            connection.row_factory = sqlite3.Row
            self._initialise()
        except StoreError:
            connection.close()
            raise
        except sqlite3.DatabaseError as error:
            if connection is not None:
                connection.close()
            raise StoreError(f"{self.path} is not a usable run store: {error}") from error

    def _initialise(self) -> None:
        with self._lock, self._connection:
            # Version check strictly before touching the data tables: a file
            # written by an incompatible build must fail with StoreError, not
            # with whatever sqlite error its old table shapes produce.
            self._connection.executescript(_META_SCHEMA)
            row = self._connection.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._connection.execute(
                    "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
                    (str(STORE_SCHEMA_VERSION),),
                )
            elif int(row["value"]) != STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"store {self.path} has schema version {row['value']}, "
                    f"this build expects {STORE_SCHEMA_VERSION}"
                )
            self._connection.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES ('generation', '0')"
            )
            self._connection.executescript(_SCHEMA)
            # Additive migration, same schema version: stores written before
            # the system column / timing tables gain them in place.  Pre-
            # migration coordinate keys are untouched (default-system specs
            # omit the field from their key by design), so old and new rows
            # keep addressing the same runs.
            columns = {
                row["name"]
                for row in self._connection.execute("PRAGMA table_info(runs)")
            }
            if "system" not in columns:
                self._connection.execute("ALTER TABLE runs ADD COLUMN system TEXT")

    def _bump_generation(self) -> None:
        """Advance the write generation (callers hold the lock + transaction)."""
        self._connection.execute(
            "UPDATE store_meta SET value = CAST(value AS INTEGER) + 1 "
            "WHERE key = 'generation'"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Run records
    # ------------------------------------------------------------------
    @staticmethod
    def record_id(record: RunRecord) -> str:
        """The content id of one record: coordinate **and** payload.

        Distinct from the coordinate key on purpose: two executions of the
        same configuration that disagree (a code change between them) keep
        separate rows, so older snapshots stay reassemblable bit for bit.
        """
        r_json = json.dumps(record.r_payload, sort_keys=True, separators=(",", ":"))
        m_json = "" if record.m_payload is None else json.dumps(
            record.m_payload, sort_keys=True, separators=(",", ":")
        )
        payload = f"{run_key(record.spec)}|{r_json}|{m_json}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def put_records(self, records: Iterable[RunRecord]) -> List[str]:
        """Persist a batch of records in one transaction; returns record ids."""
        rows = []
        record_ids = []
        timing_rows = []
        created = _utc_now()
        for record in records:
            spec = record.spec
            record_id = self.record_id(record)
            record_ids.append(record_id)
            rows.append(
                (
                    record_id,
                    run_key(spec),
                    spec.model,
                    run_coordinate(spec)["model_fingerprint"],
                    spec.scheme,
                    spec.case,
                    spec.samples,
                    spec.sut_seed,
                    spec.case_seed,
                    None if spec.faults is None else spec.faults.name,
                    None if spec.mutant is None else spec.mutant.mutant_id,
                    spec.system,
                    1 if record.passed else 0,
                    record.violation_count,
                    record.timeout_count,
                    _index_free_spec_json(spec),
                    json.dumps(record.r_payload, sort_keys=True),
                    None if record.m_payload is None else json.dumps(record.m_payload, sort_keys=True),
                    created,
                )
            )
            phases = record.phase_seconds
            if record.elapsed_s or phases:
                phases = phases or {}
                timing_rows.append(
                    (
                        record_id,
                        record.elapsed_s,
                        phases.get("codegen"),
                        phases.get("execute"),
                        phases.get("analyze"),
                    )
                )
        with self._lock, self._connection:
            before = self._connection.total_changes
            self._connection.executemany(
                "INSERT OR IGNORE INTO runs (record_id, coord_key, model, "
                "model_fingerprint, scheme, case_name, samples, sut_seed, case_seed, "
                "fault_plan, mutant, system, passed, violations, timeouts, spec_json, "
                "r_json, m_json, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
            inserted = self._connection.total_changes - before
            # Idempotent re-puts leave the generation (and every ETag) alone.
            if inserted:
                self._bump_generation()
            # Timing rows are a non-canonical side channel: first write wins,
            # and they never bump the generation (they cannot change a
            # verdict, so they must not churn every cached response).
            if timing_rows:
                self._connection.executemany(
                    "INSERT OR IGNORE INTO run_timings "
                    "(record_id, elapsed_s, codegen_s, execute_s, analyze_s) "
                    "VALUES (?, ?, ?, ?, ?)",
                    timing_rows,
                )
        if inserted:
            REGISTRY.counter("store_inserts_total").inc(inserted)
        return record_ids

    def _record_from_row(self, row: sqlite3.Row, *, index: int = 0) -> RunRecord:
        payload = json.loads(row["spec_json"])
        payload["index"] = index
        return RunRecord(
            spec=RunSpec.from_dict(payload),
            r_payload=json.loads(row["r_json"]),
            m_payload=None if row["m_json"] is None else json.loads(row["m_json"]),
        )

    def get(self, key: str, *, index: int = 0) -> Optional[RunRecord]:
        """The stored record under ``key``: a record id, or a coordinate key
        (resolving to the newest record at that coordinate)."""
        with self._lock:
            row = self._connection.execute(
                "SELECT * FROM runs WHERE record_id = ? OR coord_key = ? "
                "ORDER BY rowid DESC LIMIT 1",
                (key, key),
            ).fetchone()
        return None if row is None else self._record_from_row(row, index=index)

    def lookup(self, spec: RunSpec) -> Optional[RunRecord]:
        """The newest stored record at ``spec``'s coordinate, carrying ``spec``.

        Returning the *caller's* spec (rather than the stored copy) keeps the
        reassembled campaign bit-for-bit equal to a cold execution: the grid
        index is the one position-dependent field, and it comes from the
        caller's expansion.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT r_json, m_json FROM runs WHERE coord_key = ? "
                "ORDER BY rowid DESC LIMIT 1",
                (run_key(spec),),
            ).fetchone()
        REGISTRY.counter(
            "store_lookups_total", labels={"outcome": "hit" if row else "miss"}
        ).inc()
        if row is None:
            return None
        return RunRecord(
            spec=spec,
            r_payload=json.loads(row["r_json"]),
            m_payload=None if row["m_json"] is None else json.loads(row["m_json"]),
        )

    def has(self, spec: RunSpec) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM runs WHERE coord_key = ?", (run_key(spec),)
            ).fetchone()
        return row is not None

    def delete_run(self, key: str) -> bool:
        """Drop stored runs by record id or coordinate key; True if any existed."""
        with self._lock, self._connection:
            cursor = self._connection.execute(
                "DELETE FROM runs WHERE record_id = ? OR coord_key = ?", (key, key)
            )
            if cursor.rowcount > 0:
                self._bump_generation()
        return cursor.rowcount > 0

    def run_rows(
        self,
        *,
        scheme: Optional[int] = None,
        case: Optional[str] = None,
        model: Optional[str] = None,
        system: Optional[str] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        order: str = "newest",
    ) -> List[Dict[str, Any]]:
        """Compact summary rows of the stored runs.

        ``order`` is ``"newest"`` (insertion order, newest first — the
        default) or ``"slowest"`` (worker wall-clock, slowest first; rows
        without timings sort last).  Timing columns ride along when the run
        has a persisted timing profile, so ``repro store runs --slowest``
        answers which coordinates are slow and in which phase.
        """
        if order not in ("newest", "slowest"):
            raise ValueError(f"unknown run ordering {order!r}")
        if limit is not None and limit < 0:
            raise ValueError("limit cannot be negative")
        if offset < 0:
            raise ValueError("offset cannot be negative")
        clauses = []
        parameters: List[Any] = []
        for column, value in (
            ("scheme", scheme),
            ("case_name", case),
            ("model", model),
            ("system", system),
        ):
            if value is not None:
                clauses.append(f"runs.{column} = ?")
                parameters.append(value)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        if order == "slowest":
            suffix = " ORDER BY run_timings.elapsed_s IS NULL, run_timings.elapsed_s DESC, runs.rowid DESC"
        else:
            suffix = " ORDER BY runs.rowid DESC"
        if limit is not None or offset:
            # SQLite requires LIMIT before OFFSET; -1 means "no limit".
            suffix += " LIMIT ?"
            parameters.append(-1 if limit is None else limit)
            if offset:
                suffix += " OFFSET ?"
                parameters.append(offset)
        with self._lock:
            rows = self._connection.execute(
                "SELECT runs.record_id, runs.coord_key, runs.model, "
                "runs.model_fingerprint, runs.scheme, runs.case_name, runs.samples, "
                "runs.sut_seed, runs.case_seed, runs.fault_plan, runs.mutant, "
                "runs.system, runs.passed, runs.violations, runs.timeouts, "
                "runs.created_at, run_timings.elapsed_s, run_timings.codegen_s, "
                "run_timings.execute_s, run_timings.analyze_s "
                "FROM runs LEFT JOIN run_timings "
                f"ON run_timings.record_id = runs.record_id{where}{suffix}",
                parameters,
            ).fetchall()
        summaries = []
        for row in rows:
            summary = {
                "key": row["record_id"],
                "coordinate": row["coord_key"],
                "model": row["model"],
                "model_fingerprint": row["model_fingerprint"],
                "scheme": row["scheme"],
                "case": row["case_name"],
                "samples": row["samples"],
                "sut_seed": row["sut_seed"],
                "case_seed": row["case_seed"],
                "fault_plan": row["fault_plan"],
                "mutant": row["mutant"],
                "system": row["system"],
                "passed": bool(row["passed"]),
                "violations": row["violations"],
                "timeouts": row["timeouts"],
                "created_at": row["created_at"],
            }
            if row["elapsed_s"] is not None:
                summary["timing"] = {
                    "elapsed_s": row["elapsed_s"],
                    "codegen_s": row["codegen_s"],
                    "execute_s": row["execute_s"],
                    "analyze_s": row["analyze_s"],
                }
            summaries.append(summary)
        return summaries

    def run_count(
        self,
        *,
        scheme: Optional[int] = None,
        case: Optional[str] = None,
        model: Optional[str] = None,
        system: Optional[str] = None,
    ) -> int:
        """How many stored runs match the filters (drives /runs pagination)."""
        clauses = []
        parameters: List[Any] = []
        for column, value in (
            ("scheme", scheme),
            ("case_name", case),
            ("model", model),
            ("system", system),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                parameters.append(value)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        with self._lock:
            return self._connection.execute(
                f"SELECT COUNT(*) AS n FROM runs{where}", parameters
            ).fetchone()["n"]

    # ------------------------------------------------------------------
    # Campaign snapshots
    # ------------------------------------------------------------------
    def save_campaign(self, result: CampaignResult) -> str:
        """Snapshot a campaign (records included); returns the snapshot id.

        Self-contained: any record the ``runs`` table is missing is inserted
        from the result itself, so a snapshot can always be reassembled.
        Snapshot ids hash the spec plus every record's content, so re-saving
        an identical campaign is a no-op while a re-run whose *results*
        changed (same grid, new code) gets its own snapshot — that pair is
        exactly what ``repro store diff`` compares.
        """
        keys = self.put_records(result.records)
        spec_payload = result.spec.to_dict()
        campaign_id = campaign_key(spec_payload, keys)
        with self._lock, self._connection:
            before = self._connection.total_changes
            self._connection.execute(
                "INSERT OR IGNORE INTO campaigns "
                "(campaign_id, name, size, spec_json, run_keys_json, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    result.spec.name,
                    len(result.records),
                    json.dumps(spec_payload, sort_keys=True),
                    json.dumps(keys),
                    _utc_now(),
                ),
            )
            if self._connection.total_changes != before:
                self._bump_generation()
                REGISTRY.counter("store_snapshots_total").inc()
        return campaign_id

    def load_campaign(self, campaign_id: str) -> CampaignResult:
        """Reassemble a snapshot into a full, byte-identical campaign result."""
        with self._lock:
            row = self._connection.execute(
                "SELECT spec_json, run_keys_json FROM campaigns WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchone()
        if row is None:
            raise StoreError(f"store {self.path} has no campaign snapshot {campaign_id!r}")
        keys = json.loads(row["run_keys_json"])
        runs = []
        for index, key in enumerate(keys):
            record = self.get(key, index=index)
            if record is None:
                raise StoreError(f"campaign {campaign_id!r} references missing run {key!r}")
            runs.append(record.to_dict())
        return CampaignResult.from_dict(
            {"campaign": json.loads(row["spec_json"]), "runs": runs}
        )

    def campaign_rows(self, *, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Summary rows of the stored snapshots (newest first)."""
        where, parameters = ("", [])
        if name is not None:
            where, parameters = (" WHERE name = ?", [name])
        with self._lock:
            rows = self._connection.execute(
                "SELECT campaign_id, name, size, created_at, rowid FROM campaigns"
                f"{where} ORDER BY rowid DESC",
                parameters,
            ).fetchall()
        return [
            {
                "campaign_id": row["campaign_id"],
                "name": row["name"],
                "size": row["size"],
                "created_at": row["created_at"],
            }
            for row in rows
        ]

    def latest_campaign_id(self, *, name: Optional[str] = None, offset: int = 0) -> Optional[str]:
        """The id of the most recently saved snapshot (``offset`` steps back)."""
        rows = self.campaign_rows(name=name)
        return rows[offset]["campaign_id"] if offset < len(rows) else None

    def resolve_campaign_id(self, reference: str, *, name: Optional[str] = None) -> str:
        """Resolve a snapshot reference: an explicit id, ``latest`` or ``prev``."""
        if reference == "latest":
            resolved = self.latest_campaign_id(name=name)
        elif reference == "prev":
            resolved = self.latest_campaign_id(name=name, offset=1)
        else:
            resolved = reference
        if resolved is None:
            raise StoreError(f"store {self.path} cannot resolve campaign reference {reference!r}")
        return resolved

    # ------------------------------------------------------------------
    # Live campaign progress
    # ------------------------------------------------------------------
    def save_progress(self, snapshot: Dict[str, Any]) -> None:
        """Persist a live progress snapshot, keyed by campaign name.

        Deliberately does **not** bump the write generation: progress is an
        advisory side channel written many times per campaign, and churning
        every cached response (and every client's ETag) once per shard would
        defeat the serving layer's 304 path.  ``/progress`` responses bypass
        the generation-keyed cache for the same reason.
        """
        name = snapshot["campaign"]
        with self._lock, self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO campaign_progress "
                "(name, snapshot_json, updated_at) VALUES (?, ?, ?)",
                (name, json.dumps(snapshot, sort_keys=True), _utc_now()),
            )
        REGISTRY.counter("store_progress_writes_total").inc()

    def load_progress(self, name: str) -> Optional[Dict[str, Any]]:
        """The latest progress snapshot for campaign ``name`` (with its
        ``updated_at`` write stamp), or ``None``."""
        with self._lock:
            row = self._connection.execute(
                "SELECT snapshot_json, updated_at FROM campaign_progress WHERE name = ?",
                (name,),
            ).fetchone()
        if row is None:
            return None
        snapshot = json.loads(row["snapshot_json"])
        snapshot["updated_at"] = row["updated_at"]
        return snapshot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        with self._lock:
            runs = self._connection.execute("SELECT COUNT(*) AS n FROM runs").fetchone()["n"]
            campaigns = self._connection.execute(
                "SELECT COUNT(*) AS n FROM campaigns"
            ).fetchone()["n"]
        return {"runs": runs, "campaigns": campaigns}

    def state_token(self) -> str:
        """A cheap token that changes whenever the store's content changes.

        Reads the monotonic write-generation counter, which every mutating
        method bumps inside its own transaction — unlike row counts or max
        rowids, it cannot collide after a delete-then-insert.  The serving
        layer keys its response cache on it: identical token → identical
        responses, so ETags stay valid exactly as long as the data.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT value FROM store_meta WHERE key = 'generation'"
            ).fetchone()
        generation = "0" if row is None else row["value"]
        return hashlib.sha256(f"gen:{generation}".encode("utf-8")).hexdigest()[:16]
