"""Exception hierarchy, and ``check``, the one way to fail a theorem.

The CLI reports each error with the kind and exit code that the table
``nefmirror.cli.ERRORS`` gives its class.
"""


class NefMirrorError(Exception):
    """Base class for all package errors."""


class InputError(NefMirrorError, ValueError):
    """Malformed or inconsistent user input (bad dimensions, bad partition...)."""


class DomainError(NefMirrorError, ValueError):
    """Input is well-formed but outside an operation's domain (e.g. origin
    not interior, non-Cartier or non-nef divisor)."""


class SmoothnessError(NefMirrorError):
    """A computation requiring a smooth (unimodular) fan was handed a
    non-smooth one."""


class ConsistencyError(NefMirrorError):
    """An internal cross-check failed.  These guard identities that are
    theorems; a failure indicates a bug, never bad input."""


def check(identity, ok, **operands):
    """Unless ``ok``, raise ConsistencyError("<identity> failed: k=v, ..."),
    naming a theorem by its statement and the operands it broke on."""
    if not ok:
        detail = ", ".join(f"{k}={v}" for k, v in operands.items())
        raise ConsistencyError(f"{identity} failed: {detail}" if detail
                               else f"{identity} failed")


class GoldenMismatchError(NefMirrorError):
    """Generated data disagrees with a stored golden reference."""
