"""Exception types shared across the simulator."""


class NotPSD(ValueError):
    """A matrix expected to be positive semidefinite has a negative eigenvalue."""


class SingularSystem(ValueError):
    """A linear system is numerically singular and no ridge was requested."""


class ShapeMismatch(ValueError):
    """An operand does not have the shape a function, layer or pipeline stage
    expects (matrix operands that are not conformable included)."""


class MissingRecord(RuntimeError):
    """backward() was called without the activation record from forward()."""


class DegenerateInput(ValueError):
    """Input is numerically degenerate (e.g. zero power before normalization)."""


class Diverged(RuntimeError):
    """Training loss became non-finite."""


class InvariantViolation(RuntimeError):
    """A runtime invariant of the simulation does not hold (checked under python -O too)."""


class AllTargetsFailed(RuntimeError):
    """No candidate target class could be flipped within the search radius.

    ``grad_evals`` counts the gradient evaluations the failed search spent;
    it is instance state, so it survives pickling.
    """

    def __init__(self, message: str, grad_evals: int = 0):
        super().__init__(message)
        self.grad_evals = grad_evals


class NoProgress(UserWarning):
    """An attack run produced no successful decision flip (reported, not fatal)."""


class MissingCheckpoint(FileNotFoundError):
    """A run needs trained weights but no checkpoint exists at the given path."""


class CorruptCheckpoint(ValueError):
    """A checkpoint file is not a readable checkpoint: wrong magic, version or truncated."""


class ConfigInvalid(ValueError):
    """A config file field is present but invalid; carries the field path.

    ``args`` holds both constructor arguments, so the error pickles back to
    itself (a sweep worker's error reaches the parent with its type).
    """

    def __init__(self, field_path: str, message: str):
        super().__init__(field_path, message)
        self.field_path = field_path

    def __str__(self) -> str:
        return f"{self.field_path}: {self.args[1]}"
