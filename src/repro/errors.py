"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. The simulated out-of-memory condition used by the
scalability experiments raises :class:`SimulatedOutOfMemoryError`, which is
deliberately *not* a :class:`MemoryError` subclass: it signals a modelled
budget violation, not actual allocator failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised for malformed graph construction or invalid graph queries."""


class GraphFormatError(GraphError):
    """Raised when a graph file cannot be parsed."""


class DeltaError(GraphError):
    """Raised for invalid graph mutations (malformed or inapplicable deltas)."""


class SamplerError(ReproError):
    """Raised for invalid sampler configuration or usage."""


class SimulatedOutOfMemoryError(SamplerError):
    """Raised when a sampler's memory estimate exceeds the simulated budget.

    Mirrors the '*' (out-of-memory) entries of Tables VI and VII in the
    paper without requiring billion-edge inputs.
    """

    def __init__(self, required_bytes: int, budget_bytes: int, what: str = "sampler"):
        self.required_bytes = int(required_bytes)
        self.budget_bytes = int(budget_bytes)
        self.what = what
        super().__init__(
            f"simulated OOM: {what} requires {required_bytes:,} bytes "
            f"but the budget is {budget_bytes:,} bytes"
        )


class ModelError(ReproError):
    """Raised for invalid random-walk model definitions or parameters."""


class WalkError(ReproError):
    """Raised when walk generation is configured or driven incorrectly."""


class ShardError(ReproError):
    """Raised for invalid shard plans or sharded-engine configuration
    (the sharded walk subsystem), and for shard transport failures — a
    worker process dying mid-operation, or a transport being reused
    after such a failure."""


class ShardTimeoutError(ShardError):
    """Raised when a shard worker misses a transport deadline.

    The socket transport bounds every operation (and the connect
    handshake) with a timeout; a worker that does not answer in time is
    indistinguishable from a hung host, so the driver raises this —
    rather than blocking a whole walk wave forever — and marks the
    transport broken.
    """


class FrameError(ReproError):
    """Raised when a length-prefixed frame violates the wire discipline.

    Covers short reads (the peer closed mid-frame), oversized frames
    (a corrupt length prefix must not trigger a giant allocation) and
    malformed frame payloads on the blocking-socket helpers shared by
    the serving and sharding network code
    (:mod:`repro.serving.framing`, :mod:`repro.sharding.wire`).
    """


class VocabularyError(ReproError):
    """Raised for unknown tokens or empty vocabularies in embedding code."""


class TrainingError(ReproError):
    """Raised when embedding training receives unusable input."""


class EvaluationError(ReproError):
    """Raised for malformed evaluation inputs (labels, splits, ...)."""


class SpecError(ReproError):
    """Raised for invalid declarative run specifications (RunSpec)."""


class ConfigError(ReproError, ValueError):
    """Raised for invalid user-supplied arguments or configuration values.

    Also a :class:`ValueError` so call sites migrated from ad-hoc
    ``raise ValueError`` keep satisfying callers that catch the builtin.
    """


class ServingError(ReproError):
    """Raised for invalid embedding-store files or serving-time queries."""


class ServerError(ServingError):
    """Raised for query-server failures (the network-facing serving tier).

    Every server-side failure maps to a stable wire ``code`` so clients
    can branch without parsing messages; subclasses carry the specific
    codes (``overloaded``, ``bad-request``). The base class itself is
    the ``server`` code — unexpected-but-typed failures.
    """

    #: stable machine-readable identifier sent in error responses.
    code = "server"


class OverloadError(ServerError):
    """Raised (or sent on the wire) when admission control sheds a request.

    The server's pending queue is bounded; once full, new requests are
    answered immediately with this error instead of queueing without
    limit. Clients should back off and retry.
    """

    code = "overloaded"


class ProtocolError(ServerError):
    """Raised for malformed frames or invalid request payloads.

    Covers undecodable JSON, oversized frames, unknown operations and
    missing/ill-typed request fields — the client sent something the
    length-prefixed JSON protocol does not define.
    """

    code = "bad-request"


class SerializationError(ServingError, ValueError):
    """Raised for corrupt, truncated, or version-incompatible on-disk data.

    Also a :class:`ValueError` for backwards compatibility with callers
    that catch the builtin around load paths.
    """
