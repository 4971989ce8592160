"""Exception types shared across the package."""


class InputError(ValueError):
    """A value from outside the program was rejected: a command-line
    argument, a problem JSON, a grid CSV or a caller's parameters.  The CLI
    turns it, and no other ValueError, into `name: message` and exit 2."""


class AdmissibilityError(ValueError):
    """A field or vector left the Garding cone where it was required to stay.

    Carries enough context (node index, eigenvalue vector) to replay the
    failure.
    """

    def __init__(self, message, node=None, lam=None):
        super().__init__(message)
        self.node = node
        self.lam = lam


class DegenerateSpectrumError(ValueError):
    """Eigenvalue gap too small for a second-derivative formula.

    The colliding pair of (1-based) indices is stored in ``pair``.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class ConstructionError(ValueError):
    """Subsolution construction failed an admissibility check at a node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NonconvergenceError(RuntimeError):
    """Newton iteration stalled; the trace so far is attached."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class SearchFailureError(RuntimeError):
    """Bisection bracket exhausted; the worst counterexample is attached."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class VerificationError(ArithmeticError):
    """A checked identity or inequality failed; both sides are attached."""

    def __init__(self, message, lhs=None, rhs=None):
        super().__init__(message)
        self.lhs = lhs
        self.rhs = rhs
