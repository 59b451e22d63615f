"""Exception types shared across the package."""


class QuiverModuliError(Exception):
    """Base class for all package errors."""


class PreconditionError(QuiverModuliError):
    """An operation was called outside its mathematical domain."""


class BoxGuardExceeded(PreconditionError):
    """An enumeration over a dimension-vector box would be too large."""

    def __init__(self, required: int | None, allowed: int):
        # required is None when the count stopped as soon as it passed allowed
        self.required = required
        self.allowed = allowed
        if required is None:
            need = f"more box cells than the guard allows ({allowed})"
        else:
            need = f"{required} box cells but the guard allows {allowed}"
        super().__init__(
            f"enumeration needs {need}; raise the guard (--max-box) if this size is intended"
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
    """The separating-covector search hit its coefficient bound."""

    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(
            f"no separating covector with sup-norm at most {bound} exists; "
            "retry with a larger search bound"
        )


class InternalCheckError(QuiverModuliError):
    """An internal consistency assertion failed; indicates a bug, not bad input."""
