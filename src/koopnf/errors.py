"""Exception types shared across the package."""

from __future__ import annotations


class ResonanceError(RuntimeError):
    """A homological division hit an (approximately) zero eigenvalue.

    Carries the offending component index (0-based), the exponent tuple and
    the divisor value so callers can report exactly which term obstructed
    the elimination.
    """

    def __init__(self, component: int, alpha: tuple, mu: complex, stage: int | None = None):
        self.component = component
        self.alpha = alpha
        self.mu = mu
        self.stage = stage
        where = f" at stage {stage}" if stage is not None else ""
        super().__init__(
            f"resonant term{where}: component {component + 1}, alpha {tuple(alpha)}, "
            f"divisor {mu!r}"
        )


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach the requested tolerance.

    ``reason`` is the message without the iteration and contraction-ratio
    suffix, so a caller can re-wrap it without repeating that suffix.
    """

    def __init__(self, message: str, iterations: int = 0, last_ratio: float | None = None):
        self.reason = message
        self.iterations = iterations
        self.last_ratio = last_ratio
        if last_ratio is not None:
            message = f"{message} (iterations={iterations}, last contraction ratio={last_ratio:.6g})"
        super().__init__(message)


class DefectiveMatrixError(ValueError):
    """The linear part is not reliably diagonalizable."""

    def __init__(self, message: str, condition: float | None = None):
        self.condition = condition
        super().__init__(message)


class MapFormatError(ValueError):
    """A map description file failed validation.

    ``context`` names the offending field or term index when known.
    """

    def __init__(self, message: str, context: str | None = None):
        self.context = context
        if context:
            message = f"{context}: {message}"
        super().__init__(message)
