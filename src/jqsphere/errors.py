"""Exception taxonomy shared across the package.

Everything raised on purpose derives from JQSphereError so callers can
catch one base class at the CLI boundary.
"""


class JQSphereError(Exception):
    pass


class DivisionByZero(JQSphereError, ZeroDivisionError):
    """Exact division by the zero scalar."""


class DenominatorVanishes(JQSphereError):
    """A substitution sent the denominator of an exact scalar to zero."""


class AlgebraMismatch(JQSphereError):
    """Operands live over different algebras (or tensor slots disagree)."""


class NotOrientable(JQSphereError):
    """A relation reduced to a nonzero constant, which has no leading
    word to orient at: the presentation is inconsistent (its ideal holds
    1), which is bad input."""


class NonTerminating(JQSphereError):
    """Completion exceeded its rule budget without stabilizing."""


class DegreeCapExceeded(JQSphereError):
    """Reduction produced a word above the completed degree bound."""


class MissingGeneratorImage(JQSphereError):
    """A generator morphism was applied to a generator it has no image for."""


class UnknownCheckId(JQSphereError):
    """A check id was requested that the registry does not define."""


class CatalogParseError(JQSphereError):
    """Syntax or consistency error in a catalog file, with position info."""

    def __init__(self, message, path="<catalog>", line=0, column=0):
        self.message = message
        self.path = path
        self.line = line
        self.column = column
        super().__init__(f"{path}:{line}:{column}: {message}")
