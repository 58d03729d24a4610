"""Argument checks, each ``ValueError`` naming the argument.

Scalars pass type tests, never parses: a real number is a Python or numpy int
or float, an integer a Python or numpy int, and a bool, a string, ``None`` or
a container is neither.  No bool or float array has an integer dtype, and no
string, object or complex array a real one.  A package object passes a type
test too, with its class given by the caller.  This module imports no other
package module, so every module may import it.
"""

import math
import os

import numpy as np


def is_real(value):
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_real(value, name):
    """``value`` as a float, if it is a real number."""
    if not is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_int(value, name):
    """``value`` as an int, if it is an integer; no float is, ``5.0`` included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(seed, streams=False):
    """``seed``, if it is a run seed: a non-negative integer, as numpy's.  With ``streams`` a list
    (``SeedSequence`` entropy, as ``[seed, stream]``) passes unchecked."""
    if not (streams and isinstance(seed, list)) and check_int(seed, "seed") < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def check_instance(value, cls, name):
    """``value``, if it is a ``cls``; no other value is built into one."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def check_lr(lr):
    if not (is_real(lr) and np.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be finite and > 0, got {lr!r}")


def check_int_vector(values, name):
    """``values`` as int64, if they are an integer vector: a float would truncate, a bool read as 0 and 1."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {a.shape}")
    if a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


def check_float_vector(values, name):
    """``values`` as float64, if they are a non-empty 1-D vector of reals: a bool, integer or float dtype.
    A float64 array comes back uncopied; a cast would parse strings and drop imaginary parts."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be real numbers, got dtype {a.dtype}")
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector, got shape {a.shape}")
    return a.astype(np.float64, copy=False)


def check_finite(a, name):
    """``(a.min(), a.max())`` of a non-empty array, if every entry is finite: NaN shows in both."""
    low, high = a.min(), a.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError(f"{name} contain non-finite values")
    return low, high


def check_path(path, name):
    """``path``, if ``os.fspath`` takes it; ``open()`` would take an integer, a bool too, as a file descriptor."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValueError(f"{name} must be a str, bytes or os.PathLike path, got {path!r}")
    return path
