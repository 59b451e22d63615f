"""Exception types shared across the package."""


class QuiverModuliError(Exception):
    """Base class for all package errors."""


class PreconditionError(QuiverModuliError):
    """An operation was called outside its mathematical domain."""


class BoxGuardExceeded(PreconditionError):
    """A box has more cells than the guard allows; check_box stops counting there."""

    def __init__(self, allowed: int):
        self.allowed = allowed
        super().__init__(
            f"enumeration needs more box cells than the guard allows ({allowed}); "
            "raise the guard (--max-box) if this size is intended"
        )


class NegativeArrowCountError(PreconditionError):
    """A local quiver would need a negative number of arrows.

    Signals that the decomposition type cannot be realized by pairwise
    non-isomorphic stable summands of the same slope, because Hom-vanishing
    between distinct stables caps the form value by the arrow count.
    """

    def __init__(self, source: int, target: int, count: int):
        self.source = source
        self.target = target
        self.count = count
        super().__init__(
            f"local quiver would need {count} arrows from summand {source + 1} "
            f"to summand {target + 1}"
        )


class EtaSearchExhausted(PreconditionError):
    """No nonzero covector within the bound separates d from its subvectors.

    generic_deformation's bound always suffices on two or more vertices.
    """

    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"no nonzero separating covector with sup-norm at most {bound} exists")


class InternalCheckError(QuiverModuliError):
    """An internal consistency assertion failed; indicates a bug, not bad input."""
