"""Exception types shared across the library.

Every domain error raised by cubicbrauer derives from :class:`CubicBrauerError`,
so callers (in particular the CLI) can distinguish computation failures from
programming errors.
"""

from __future__ import annotations


class CubicBrauerError(Exception):
    """Base class for all domain errors."""


class TooLarge(CubicBrauerError):
    """An input exceeded a listing, enumeration or trial-division bound."""


class NotSolvable(CubicBrauerError):
    """Subgroup enumeration requires a solvable group."""


class NotStabilized(CubicBrauerError):
    """The group does not stabilize the given point set."""


class TorsionFound(CubicBrauerError):
    """A boundary quotient Z^7 / <components> is not free of rank 7 - k."""


class InconsistentPermutation(CubicBrauerError):
    """A line permutation does not come from a lattice automorphism."""


class BadModulus(CubicBrauerError):
    """Twisted invariants require a prime-power modulus."""


class NotSeparable(CubicBrauerError):
    """A polynomial required to be separable has a repeated root."""


class WrongDegree(CubicBrauerError):
    """A polynomial does not have the required degree."""


class GeneralPositionFailed(CubicBrauerError):
    """The six blown-up points are not in general position."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"general position fails: {report.failures()}")


class EckardtPoint(CubicBrauerError):
    """The three boundary lines meet in a single point."""


class NoAdmissibleShift(CubicBrauerError):
    """No shift a up to the search bound passes general position and Eckardt."""
