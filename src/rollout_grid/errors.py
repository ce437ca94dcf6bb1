"""Exception hierarchy shared across the scenario core, the worker pool, and the drivers."""

from __future__ import annotations


class RolloutError(Exception):
    """Base class for every error raised by this package."""


# --- scenario core ---------------------------------------------------------


class ResetError(RolloutError):
    """A reset hook failed; the episode could not be (re)initialized."""


class NumericalError(RolloutError):
    """A state or observation stopped being finite."""


class ActionShapeError(RolloutError):
    """Action vector has the wrong length."""


class ActionValueError(RolloutError):
    """Action vector contains non-finite entries."""


class EpisodeOver(RolloutError):
    """step() was called after the episode already terminated or truncated."""


# --- lander environment ----------------------------------------------------


class DivergentDesignError(RolloutError):
    """Crush force cannot stop the lander and no stroke limit is configured."""


class InvalidParamsError(RolloutError):
    """Physically meaningless parameter set (e.g. zero initial energy)."""


# --- wire protocol and pool ------------------------------------------------


class FrameError(RolloutError):
    """Truncated or malformed frame buffer."""


class ProtocolError(RolloutError):
    """Structurally valid frame with an unknown or unexpected tag."""


class SpawnError(RolloutError):
    """A worker failed to start."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SpawnTimeout(SpawnError):
    """Workers did not all acknowledge READY in time."""


class BarrierTimeout(RolloutError):
    """Some workers did not reply to a batched call before the deadline."""

    def __init__(self, laggards: list[int], timeout_s: float):
        super().__init__(f"workers {laggards} did not reply within {timeout_s:.1f}s")
        self.laggards = laggards


class BatchError(RolloutError):
    """Per-worker failures inside a batched call.

    ``outcomes[i]`` is either the successful result for worker i or the
    exception it reported, so callers can salvage partial batches.
    """

    def __init__(self, outcomes: list):
        failed = [i for i, o in enumerate(outcomes) if isinstance(o, BaseException)]
        super().__init__(f"workers {failed} failed")
        self.outcomes = outcomes
        self.failed_indices = failed


class WorkerError(RolloutError):
    """Error reported by a worker over the wire (code + message)."""

    def __init__(self, code: int, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class WorkerLost(RolloutError):
    """A worker process died or its connection dropped mid-conversation."""


# --- optimization drivers --------------------------------------------------


class NotEnoughData(RolloutError):
    """Operation needs more completed trials than the history holds."""


# --- configuration ---------------------------------------------------------


class ParseError(RolloutError):
    """Configuration document is not parseable or has unknown keys."""


class ValidationError(RolloutError):
    """Configuration parsed but a value violates its constraint."""
