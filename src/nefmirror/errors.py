"""Exception hierarchy shared by all modules.

The CLI reports each error with the kind and exit code that the table
``nefmirror.cli.ERRORS`` gives its class.
"""


class NefMirrorError(Exception):
    """Base class for all package errors."""


class InputError(NefMirrorError, ValueError):
    """Malformed or inconsistent user input (bad dimensions, bad partition...)."""


class DomainError(NefMirrorError, ValueError):
    """Input is well-formed but outside an operation's domain (e.g. origin
    not interior, unbounded divisor polytope, non-nef divisor)."""


class SmoothnessError(NefMirrorError):
    """A computation requiring a smooth (unimodular) fan was handed a
    non-smooth one."""


class ConsistencyError(NefMirrorError):
    """An internal cross-check failed.  These guard identities that are
    theorems; a failure indicates a bug, never bad input."""


class GoldenMismatchError(NefMirrorError):
    """Generated data disagrees with a stored golden reference."""
