"""Exception and warning types shared across the package."""


class StripwaveError(Exception):
    """Base class for solver errors."""


class ConfigError(StripwaveError):
    """Bad or unknown configuration input."""


class SurfaceTooLarge(StripwaveError):
    """max|eta| >= b/2: the flattening map leaves its bi-Lipschitz range."""


class NumericallySingular(StripwaveError):
    """A transverse operator whose eigenvalues are not all real and positive."""


class IllConditionedCollocation(StripwaveError):
    """A per-frequency system's condition number, cond_1(K) of the closed
    form or the transverse bound, is not finite or exceeds
    odesystem.COND_LIMIT; the message names the frequency and the limit."""

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
