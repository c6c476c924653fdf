"""Dyck paths of bounded height with a bounded run of high valleys.

Four independent counting routes for the class: exhaustive ECO generation,
succession-rule label dynamics, exact generating-function expansion, and a
prefix-state counting oracle, plus the Catalan-number identities that
fall out of the generating function.
"""

from .errors import (
    BadSymbol,
    CapExceeded,
    DomainViolation,
    EmptyPath,
    NegativePrefix,
    NotInClass,
    UnbalancedWord,
    ValleyforgeError,
)
from .paths import (
    EMPTY_PATH,
    ClassParams,
    DyckPath,
    catalan,
    height,
    is_in_class,
    max_valley_run_at_height,
    parse_path,
)

__version__ = "0.1.0"

__all__ = [
    "BadSymbol",
    "CapExceeded",
    "ClassParams",
    "DomainViolation",
    "DyckPath",
    "EMPTY_PATH",
    "EmptyPath",
    "NegativePrefix",
    "NotInClass",
    "UnbalancedWord",
    "ValleyforgeError",
    "catalan",
    "height",
    "is_in_class",
    "max_valley_run_at_height",
    "parse_path",
]
