"""Exception hierarchy shared across the engine and applications."""


class BtsearchError(Exception):
    """Base class for all package errors."""


class InputFormatError(BtsearchError):
    """Problem input could not be parsed (bad poset, graph, CNF, ...)."""


class NodeDecodeError(BtsearchError):
    """A checkpoint's job or token bytes are not decodable by this application."""


class OracleConsistencyError(BtsearchError):
    """The adjacency oracle and local-search function disagree; traversal aborted."""


class CheckpointError(BtsearchError):
    """Checkpoint file is missing, corrupt, or belongs to a different application."""


class WorkerCrashError(BtsearchError):
    """A worker failed mid-run; the run was aborted to avoid silently losing a job."""


class EngineError(BtsearchError):
    """Internal engine protocol violation (malformed result, bad state)."""


class MetricsError(BtsearchError):
    """Invalid metrics input (nonpositive times, bad core count)."""
