"""Exception types shared across the toolkit."""


class HypsurfError(Exception):
    """Base class for all toolkit errors."""


class QuadratureNotConverged(HypsurfError):
    """Node doubling (or refinement) failed to stabilize an integral."""


class ParameterOutOfRange(HypsurfError, ValueError):
    """An input lies outside the range a computation supports."""


class BudgetExceeded(HypsurfError):
    """An enumeration grew past its configured element cap."""


class NonTransitive(HypsurfError):
    """Cover construction failed to produce a connected cover."""


class RelationViolation(HypsurfError):
    """Permutation data does not respect the group's defining relation."""


class EmptyWindow(HypsurfError):
    """No eigenvalue falls inside the requested spectral window."""


class WindowNotResolved(HypsurfError):
    """Eigendata does not reach far enough past the window to trust counts."""


class FormatError(HypsurfError):
    """Eigendata file does not match the documented layout."""


class OrthonormalityViolation(HypsurfError):
    """Gram matrix of ingested eigenvectors deviates beyond tolerance."""


class ResidualViolation(HypsurfError):
    """Ingested eigenpair residual exceeds its declared bound."""


class MeshPairingFailure(HypsurfError):
    """Side-pairing identification left unmatched boundary nodes."""


class SolverNotConverged(HypsurfError):
    """Sparse eigensolver failed to converge."""


class StencilOutOfDomain(HypsurfError):
    """Finite-difference stencil would leave the valid chart region."""
