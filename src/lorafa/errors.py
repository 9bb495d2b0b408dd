"""Exception hierarchy for the lorafa package, and the rules for a number and an array size."""

import numbers
import sys

import numpy as np

INDEX_MAX = np.iinfo(np.intp).max  # numpy's index range: bounds every array size and loop count


class LorafaError(Exception):
    """Base class for all lorafa errors."""


class DimensionError(LorafaError):
    """Operand shapes are incompatible."""


class ParameterError(LorafaError):
    """A configuration or hyper-parameter value is invalid."""


class NumericsError(LorafaError):
    """An operation produced NaN or Inf."""


class RetentionPolicyError(LorafaError):
    """A backward pass requested an activation the forward pass did not retain.

    This is load-bearing: it is how the reduced retention of frozen-A
    adapters is enforced rather than merely assumed.
    """


class ModeError(LorafaError):
    """An operation was called on a layer in an unsupported adaptation mode."""


class StateError(LorafaError):
    """Optimizer state does not match the parameter set."""


class DataError(LorafaError):
    """Input data is invalid (e.g. token id out of range)."""


class ReconciliationError(LorafaError):
    """Measured and analytic activation counts disagree."""


def require_number(name: str, value, integral: bool = False, at_least=None,
                   positive: bool = False, at_most=None) -> None:
    """ParameterError unless value is an integer (if integral) or a finite real,
    at least at_least and at most at_most if given, and above 0 if positive.

    Config values arrive from JSON files, so a quoted "5", a true, an
    Infinity or an integer beyond the float range must end in a config
    error, not in a TypeError from the first comparison, an OverflowError
    in the optimizer or a run that diverges.
    """
    kind, what = (numbers.Integral, "an integer") if integral else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParameterError(f"{name} must be {what}, got {value!r}")
    if not integral and not abs(value) <= sys.float_info.max:  # NaN, +-Inf, beyond the float range
        raise ParameterError(f"{name} must be finite, got {value!r}")
    if positive and not value > 0 or at_least is not None and not value >= at_least:
        bound = "positive" if positive else f">= {at_least}"
        raise ParameterError(f"{name} must be {bound}, got {value!r}")
    if at_most is not None and not value <= at_most:
        raise ParameterError(f"{name} must be <= {at_most}, got {value!r}")


def require_array_size(what: str, elements: int) -> None:
    """ParameterError unless an array of this many elements is within numpy's index
    range, INDEX_MAX: the upper bound on every count that sizes an array."""
    if elements > INDEX_MAX:
        size = (f"{float(elements):.3g} elements" if elements <= sys.float_info.max
                else "a count beyond the float range")
        raise ParameterError(f"{what} needs {size}, more than numpy can index")
