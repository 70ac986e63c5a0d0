"""The number rule of every constructor and public scalar parameter, as
README's "Input rules" states it. The helpers only answer; each caller
raises its own error type and message."""

import numbers
from math import isfinite

# an int of smaller magnitude is a finite float64: 2**1024 - 2**970 lies
# halfway between float64's largest value and 2**1024, and rounds up
_INT_HI = 2**1024 - 2**970


def is_real(v) -> bool:
    """A ``numbers.Real``, not a bool, that is finite as a float64."""
    t = type(v)
    if t is float:
        return isfinite(v)
    if t is int:
        return abs(v) < _INT_HI
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and isfinite(v)
    except OverflowError:  # beyond float64's range
        return False


def is_integer(v) -> bool:
    """A ``numbers.Integral`` that is not a bool."""
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def is_real_array(a) -> bool:
    """An ndarray of integer or float dtype, or of object dtype holding
    only reals. O(1) unless its dtype is object."""
    return a.dtype.kind in "iuf" or (a.dtype.kind == "O" and all(map(is_real, a.flat)))
