"""Exception hierarchy for the blochinv package."""


class BlochError(Exception):
    """Base class for all blochinv errors."""


class NumericFailure(BlochError):
    """A numeric computation failed on valid input; the CLI exits 1."""


# --- number field construction / arithmetic ---

class NonMonic(BlochError):
    """Minimal polynomial is not monic."""


class NotSquarefree(BlochError):
    """Minimal polynomial shares a factor with its derivative."""


class DetectedReducible(BlochError):
    """A cheap reducibility witness (rational root, low-degree factor) was found."""


class FieldMismatch(BlochError):
    """Operands belong to different number fields."""


class DivisionByZero(BlochError, ZeroDivisionError):
    """Inversion of the zero field element."""


class RootFindingFailed(NumericFailure):
    """Root refinement did not reach the requested precision."""


# --- analytic / shape errors ---

class DegenerateShape(BlochError):
    """A simplex parameter landed in {0, 1, infinity}."""


# --- pre-Bloch group ---

class NotDistinct(BlochError):
    """Cross-ratio input points are not pairwise distinct."""


class DegenerateFiveTerm(BlochError):
    """Five-term arguments produce an entry in {0, 1} or coincide."""


class RequiresExactField(BlochError):
    """Operation needs exact field-element generators, got numeric ones."""


# --- triangulation file / combinatorics ---

class TriangulationSyntaxError(BlochError):
    """Malformed triangulation or element file; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class DimensionMismatch(BlochError):
    """Matrix / vector sizes disagree with the declared tets and cusps."""


class OpenFace(BlochError):
    """A tetrahedron face is left unglued."""


class NotIntegral(BlochError):
    """U.Z / (pi i) is not within tolerance of an integer vector."""


# --- Dehn surgery ---

class NotCoprime(BlochError):
    """Filling coefficients (p, q) are not coprime."""


class RankDeficient(BlochError):
    """No square nonsingular subsystem could be selected."""


class JacobianSingular(NumericFailure):
    """Newton step hit a numerically singular Jacobian."""


class Diverged(NumericFailure):
    """Newton iteration failed to converge."""


class DegeneratedToFlat(NumericFailure):
    """Without allow_flat, a shape fell below the flatness floor."""


class NotFilled(BlochError):
    """Core length requested at an unfilled cusp."""


# --- flattenings ---

class Inconsistent(BlochError):
    """U c = d has no rational solution (invalid triangulation data)."""


# --- scissors congruence ---

class NotAFiveTermConfiguration(BlochError):
    """Cycle move applied to simplices not matching the five-point pattern."""
