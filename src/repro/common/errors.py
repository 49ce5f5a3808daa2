"""Exception hierarchy for the whole reproduction.

Every error raised by :mod:`repro` derives from :class:`PolarisError`, so
callers can catch one base class.  Subsystems define narrower classes here
(rather than locally) so that cross-layer handlers — e.g. the FE retry loop
catching storage faults raised deep inside a BE task — do not need to import
the subsystem that raised them.
"""

from __future__ import annotations


class PolarisError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Storage layer
# --------------------------------------------------------------------------


class StorageError(PolarisError):
    """Base class for object-store failures."""


class BlobNotFoundError(StorageError):
    """The requested blob does not exist (or is not yet committed)."""


class BlobAlreadyExistsError(StorageError):
    """An immutable blob with this path already exists."""


class EtagMismatchError(StorageError):
    """Conditional write failed because the blob changed underneath us."""


class BlockNotStagedError(StorageError):
    """A commit-block-list named a block id that was never staged."""


class TransientStorageError(StorageError):
    """Injected or simulated transient fault; the operation may be retried."""


# --------------------------------------------------------------------------
# File format
# --------------------------------------------------------------------------


class FileFormatError(PolarisError):
    """A data or deletion-vector file is malformed or corrupt."""


class SchemaMismatchError(FileFormatError):
    """Rows or columns do not match the declared schema."""


class CheckpointLostError(FileFormatError):
    """A checkpoint is the only record of a table's state and is unreadable.

    Once garbage collection truncates the manifests a checkpoint covers,
    a corrupt or missing checkpoint can no longer be replaced by manifest
    replay: the surviving tail alone would serve part of the table.
    """


class IntegrityError(FileFormatError):
    """A blob's bytes do not match its recorded checksum.

    Raised by every verified read path instead of returning corrupt rows.
    Unlike :class:`TransientStorageError` it is *not* retryable in place —
    re-reading the same corrupt blob yields the same bytes — so the retry
    loop re-raises it immediately and the scrubber handles repair.
    """


# --------------------------------------------------------------------------
# SQL DB catalog engine
# --------------------------------------------------------------------------


class SqlDbError(PolarisError):
    """Base class for catalog-engine failures."""


class TransactionAbortedError(SqlDbError):
    """The transaction was aborted (by conflict, by user, or by the engine)."""


class WriteConflictError(TransactionAbortedError):
    """First-committer-wins write-write conflict detected at commit/write."""


class SerializationError(TransactionAbortedError):
    """A serializable-mode transaction observed a non-serializable overlap."""


class TransactionStateError(SqlDbError):
    """Operation invalid for the transaction's current state."""


# --------------------------------------------------------------------------
# DCP / execution
# --------------------------------------------------------------------------


class DcpError(PolarisError):
    """Base class for distributed-computation-platform failures."""


class TaskFailedError(DcpError):
    """A task exhausted its retry budget."""


class TopologyError(DcpError):
    """Invalid topology operation (e.g. removing an unknown node)."""


# --------------------------------------------------------------------------
# Service gateway (repro.service)
# --------------------------------------------------------------------------


class ServiceError(PolarisError):
    """Base class for multi-tenant gateway errors."""


class SessionQuotaError(ServiceError):
    """A tenant asked for more concurrent sessions than its quota allows."""


class RequestSheddedError(ServiceError):
    """Admission control rejected the request; retry after the hint.

    ``reason`` is ``"rate_limited"`` (token bucket empty) or
    ``"queue_full"`` (the workload class's bounded queue is at capacity);
    ``retry_after_s`` is the seeded backoff hint well-behaved clients
    honor before resubmitting.
    """

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(
            f"request shed ({reason}); retry after {retry_after_s:.3f}s"
        )
        #: Why admission refused the request.
        self.reason = reason
        #: Seconds the client should wait before retrying.
        self.retry_after_s = retry_after_s


class RequestTimeoutError(ServiceError):
    """A queued request exceeded its queue deadline before dispatch.

    The gateway records it on the timed-out :class:`~repro.service.gateway.Request`
    (``error = "RequestTimeoutError"``) and
    :meth:`~repro.service.gateway.Request.outcome` raises it, giving
    clients an exception-based signal alongside the ``timed_out`` ledger
    status.
    """


# --------------------------------------------------------------------------
# Chaos / crash-recovery (repro.chaos)
# --------------------------------------------------------------------------


class SimulatedCrash(BaseException):
    """A process death injected at a registered crashpoint.

    Deliberately *not* a :class:`PolarisError` (not even an
    :class:`Exception`): a crashed process runs no error handlers, so the
    crash must unwind past every ``except PolarisError`` /
    ``except Exception`` cleanup path in the engine.  Code that must stay
    crash-transparent adds an explicit ``except SimulatedCrash: raise``
    clause ahead of its broad handlers; only the chaos harness (the
    simulated process boundary) catches it for real.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"simulated crash at {site}")
        #: The registered crashpoint name where the process died.
        self.site = site


class RecoveryError(PolarisError):
    """Restart recovery found a state it cannot reconcile.

    Raised by :class:`repro.chaos.RecoveryManager` in strict mode when an
    invariant that recovery is supposed to restore provably does not hold
    (e.g. a committed ``Manifests`` row whose manifest blob is gone).
    """


# --------------------------------------------------------------------------
# Query engine / FE
# --------------------------------------------------------------------------


class PlanError(PolarisError):
    """The query plan is invalid or refers to unknown objects."""


class CatalogError(PolarisError):
    """Logical-metadata error: unknown table, duplicate table, etc."""


class SnapshotNotFoundError(CatalogError):
    """No snapshot exists at the requested point in time / sequence."""


class RetentionViolationError(CatalogError):
    """The requested historical snapshot is beyond the retention period."""
