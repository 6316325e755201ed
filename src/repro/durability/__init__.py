"""Durable state & multi-backend persistence for reconfiguration.

The repository abstraction (:class:`Store` with in-memory and sqlite
backends), the write-ahead change log reconfiguration transactions
journal into, deterministic configuration checksums, crash recovery by
log replay, and the durable RAML audit sink.  See DESIGN.md §11 for
the WAL format and the roll-forward/roll-back decision rule.
"""

from repro.durability.audit_sink import AUDIT_LOG, DurableAuditSink
from repro.durability.checksum import assembly_checksum, assembly_document
from repro.durability.recovery import (
    CLEAN,
    ROLL_BACK,
    ROLL_FORWARD,
    RecoveryReport,
    decide,
    recover,
)
from repro.durability.store import (
    MemoryStore,
    SqliteStore,
    Store,
    canonical_json,
    copy_log,
    iter_records,
    open_store,
)
from repro.durability.wal import (
    SNAPSHOT_LOG,
    WAL_LOG,
    WalPhase,
    WriteAheadLog,
)

__all__ = [
    "AUDIT_LOG",
    "CLEAN",
    "DurableAuditSink",
    "MemoryStore",
    "ROLL_BACK",
    "ROLL_FORWARD",
    "RecoveryReport",
    "SNAPSHOT_LOG",
    "SqliteStore",
    "Store",
    "WAL_LOG",
    "WalPhase",
    "WriteAheadLog",
    "assembly_checksum",
    "assembly_document",
    "canonical_json",
    "copy_log",
    "decide",
    "iter_records",
    "open_store",
    "recover",
]
