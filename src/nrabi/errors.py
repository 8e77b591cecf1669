"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Input outside the supported domain (wrong dimension, inconsistent data)."""


class DegenerateSpectrumError(RuntimeError):
    """Eigenvalue spacing too small for the closed-form coefficient formulas."""


class ConditionError(RuntimeError):
    """Resonance or consistency condition violated.

    Carries both condition reports so callers can show the offending residuals.
    """

    def __init__(self, resonance, consistency):
        self.resonance = resonance
        self.consistency = consistency
        worst = max(resonance.worst, consistency.worst)
        super().__init__(
            "scenario does not reduce to a constant coupling matrix "
            f"(worst residual {worst:.3e}, tolerance {resonance.tolerance:.3e})"
        )


class IntegrationError(RuntimeError):
    """Time integration could not complete within its error or step budget."""
