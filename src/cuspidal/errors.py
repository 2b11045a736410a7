"""Exception types raised by the analysis layers."""


class CuspidalError(Exception):
    """Base class for all package errors."""


class DegenerateGeometryError(CuspidalError):
    """a3 = 0: det(J) vanishes identically, the positional chain is degenerate."""


class EliminationUnsupportedError(CuspidalError):
    """a1 = 0 or sin(alpha1) = 0: the R/z elimination is undefined."""


class DegenerateConicError(CuspidalError):
    """Quadratic part of the conic vanishes within tolerance."""


class ZeroPolynomialError(CuspidalError):
    """All quartic coefficients are numerically zero."""


class StartOrGoalSingularError(CuspidalError):
    """A path query endpoint lies on (or too close to) the singularity locus."""


class NonGenericRobotError(CuspidalError):
    """Robot failed the genericity check; carries the evidence report."""

    def __init__(self, report):
        super().__init__("robot is not generic")
        self.report = report


class RobotFileError(CuspidalError):
    """Base class for robot-spec file problems."""


class RobotFileSyntaxError(RobotFileError):
    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class RobotValidationError(RobotFileError):
    def __init__(self, name, reason):
        super().__init__(f"robot {name!r}: {reason}")
        self.name = name
        self.reason = reason
