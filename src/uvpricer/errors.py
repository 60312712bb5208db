"""Exception types shared across the package.

Each error carries enough structure for callers (tests, the CLI) to react
programmatically instead of parsing messages.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent.

    ``key_path`` is the dotted path of the offending entry, e.g.
    ``"model.sigma_min"`` or ``"sweep.deltas[2]"``.
    """

    def __init__(self, message: str, key_path: str | None = None):
        super().__init__(message)
        self.key_path = key_path

    def __str__(self) -> str:  # noqa: D105
        base = super().__str__()
        if self.key_path:
            return f"{self.key_path}: {base}"
        return base


class StabilityError(RuntimeError):
    """The requested step count is below the solver's ``min_time_steps``.

    ``min_time_steps`` is the smallest admissible number of time steps for
    the grid and parameters that triggered the error.
    """

    def __init__(self, message: str, min_time_steps: int):
        super().__init__(message)
        self.min_time_steps = int(min_time_steps)


class NonFiniteError(RuntimeError):
    """A marching scheme produced a NaN or infinity.

    ``time_index`` is the time level at which the first non-finite value
    appeared; ``node`` is a ``(i, j)`` spatial index when available.
    """

    def __init__(
        self,
        message: str,
        time_index: int | None = None,
        node: tuple[int, int] | None = None,
    ):
        super().__init__(message)
        self.time_index = time_index
        self.node = node


class PoleError(ArithmeticError):
    """A closed-form denominator crossed zero, so the value does not exist."""


class FitError(ValueError):
    """A regression had too few usable points.

    ``report`` holds the partial result (rows computed so far) so callers can
    still inspect or persist it.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
