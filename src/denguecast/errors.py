"""Exception types shared across the pipeline.

Every error raised on purpose by this package derives from PipelineError,
so callers (notably the CLI) can map failures to exit codes in one place.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(PipelineError):
    """An operation received an empty collection it cannot work with."""


class ValidationError(PipelineError):
    """An input value violates a documented invariant."""


class DuplicateKey(PipelineError):
    """Two rows in one source share a (district, month) key."""


class EmptyTrain(PipelineError):
    """A regressor was asked to predict with no training examples."""


class ShapeError(PipelineError):
    """Array shapes are inconsistent for the requested operation."""


class StateError(PipelineError):
    """An optimizer step or penalty ran before gradients were populated."""


class NumericalError(PipelineError):
    """A loss or check produced a non-finite value."""


class DivergenceError(PipelineError):
    """Training diverged at the epoch it carries.

    Either the training or validation loss is non-finite, or it is finite but
    exceeds lstm.DIVERGENCE_FACTOR times the epoch-0 training loss (skipped
    when that loss is 0). The message names the condition and the epoch.
    """

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


class SpecError(PipelineError):
    """A model specification is internally inconsistent or mismatched."""


class StaleCache(PipelineError):
    """A backward pass was given a cache from a different forward pass."""


class PrecisionError(PipelineError):
    """A precondition on input completeness failed (e.g. missing larval data)."""
