"""Scalar argument checks: type tests, never parses, each ``ValueError`` naming the argument.

A real number is a Python or numpy int or float, an integer a Python or numpy
int; a bool, a string, ``None`` or a container is neither.  This module
imports no other package module, so every module may import it.
"""

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
    """``seed``, if it is a run seed: a non-negative integer, as numpy's.  With ``streams``, ``None``
    (entropy from the OS) and a list (``SeedSequence`` entropy, as ``[seed, stream]``) pass unchecked."""
    if not (streams and (seed is None or isinstance(seed, list))) and check_int(seed, "seed") < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def check_lr(lr):
    if not (is_real(lr) and np.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be finite and > 0, got {lr!r}")
