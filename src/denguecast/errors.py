"""Exception types, one per CLI exit code.

Every error this package raises on purpose is a PipelineError whose exit_code
cli.main returns: ValidationError 2 (bad input), PreconditionError 3 (data
that cannot support the step), DivergenceError 4. Nothing else tells them
apart, bar the sweep, which records a diverged run and goes on.
"""


class PipelineError(Exception):
    """Base of every error raised here; each subclass sets its exit_code."""


class ValidationError(PipelineError):
    """A file, flag, config or model sidecar breaks a documented rule."""

    exit_code = 2


class PreconditionError(PipelineError):
    """Valid data cannot support the step: raw files that share no
    district-month, no training examples, or a larval index missing where the
    model reads one."""

    exit_code = 3


class DivergenceError(PipelineError):
    """Training diverged at the epoch it carries; lstm.train says when. A
    sweep in which every run diverged carries None."""

    exit_code = 4

    def __init__(self, epoch, message=None):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")
