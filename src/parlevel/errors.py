"""Exception types shared across the package."""

from __future__ import annotations

import math


class AnalysisError(Exception):
    """Base class for all errors raised by this package."""


class ArityMismatchError(AnalysisError):
    """Operands of different arity where a shared arity is required."""


class TraceError(AnalysisError):
    """A candidate trace violates the trace invariants."""


class ComparableRowsError(TraceError):
    """Two trace inputs are comparable (trace entries must be minimal)."""


class InconsistentOutputsError(TraceError):
    """Compatible trace inputs carry different outputs."""


class NonMonotoneTableError(TraceError):
    """A full table is not monotone; carries one violating pair."""

    def __init__(self, low, high, message: str | None = None):
        self.low = low
        self.high = high
        super().__init__(message or f"table not monotone: f({low}) vs f({high})")


class BoundExceededError(AnalysisError):
    """An input exceeds a configured enumeration or recursion bound."""


DIGIT_LIMIT = 4300  # the most digits Python turns into text or an int by default
FIGURE_LIMIT = 10**DIGIT_LIMIT  # the least count of more than 4,300 digits


def state_figure(count: int | str) -> int | str:
    """A state count as messages and certificates show it: the count
    itself up to 4,300 digits, the most Python turns into text unless
    sys.set_int_max_str_digits raises the limit, else the text `~10^E`
    with E = floor(log10(count)) in floating point.  A figure that
    `power_count` already wrote as text is returned as it is."""
    if isinstance(count, str) or count < FIGURE_LIMIT:
        return count
    return f"~10^{math.floor(math.log10(count))}"


def power_count(*powers: tuple[int, int]) -> int | str:
    """The product of base**exp over the (base, exp) pairs, bases at
    least 1.  A product of more than 4,300 digits, more than any budget
    or bound here admits, is not computed: its figure `~10^E` comes from
    the bases' logarithms in fixed point, with E itself written `~10^F`
    past 4,300 digits."""
    bits = 0
    for base, exp in powers:
        bits += exp * base.bit_length()  # the product is below 2^bits
    if bits > 14284:  # and 2^14284 below 10^4300
        shift = 64  # fraction bits of the logarithms
        logs = sum(exp * round(math.log10(base) * 2**shift) for base, exp in powers)
        if logs >> shift > DIGIT_LIMIT:
            return f"~10^{state_figure(logs >> shift)}"
    count = 1
    for base, exp in powers:
        count *= base**exp
    return count


class BudgetExceededError(AnalysisError):
    """A brute-force search would exceed the configured state budget."""

    def __init__(self, required: int | str, allowed: int, what: str = "search"):
        self.required = required
        self.allowed = allowed
        super().__init__(
            f"{what} needs {state_figure(required)} states, "
            f"budget allows {state_figure(allowed)}"
        )


class InapplicableError(AnalysisError):
    """A construction's precondition does not hold for the given function."""


class FormatError(AnalysisError):
    """Malformed textual input (trace / relation / term / name syntax)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class TermArityError(AnalysisError):
    """A term references variables or applies symbols inconsistently."""


class SoundnessError(AnalysisError):
    """Two verified pieces of evidence contradict each other."""
