"""Exception and warning types shared across the package."""


class StripwaveError(Exception):
    """Base class for solver errors."""


class ConfigError(StripwaveError):
    """Bad or unknown configuration input."""


class SurfaceTooLarge(StripwaveError):
    """max|eta| >= b/2: the flattening map leaves its bi-Lipschitz range."""


class NumericallySingular(StripwaveError):
    """A non-finite input or an overflowed result of the tests' oracle
    ``odesystem.matrix_exponential``; the solvers fall back to collocation
    instead of raising it."""


class IllConditionedCollocation(StripwaveError):
    """Collocation system condition estimate exceeded the configured limit."""

    def __init__(self, message, cond_estimate=None):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class RhoVanishing(StripwaveError):
    """|rho| fell below tolerance on a nonzero lattice point (mis-assembled symbols)."""


class NonConvergent(StripwaveError):
    """Richardson extrapolation failed to settle."""


class PointOutsideDomain(StripwaveError):
    """Requested sample lies outside the fluid domain."""


class SolverFailure(StripwaveError):
    """Nonlinear iteration failure; carries the trace collected so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class Diverged(SolverFailure):
    """Residual contraction factor >= 1 for several consecutive steps."""


class NotConverged(SolverFailure):
    """Iteration budget exhausted before the residual tolerance was met."""


class AliasingWarning(UserWarning):
    """Dealiased spectral tail carried non-negligible energy."""
