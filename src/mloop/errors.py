"""Exception types shared across the engine.

Every error carries enough structure to be rendered as a one-line
diagnostic (the CLI prints ``ClassName: detail`` and exits 2).
"""


class LoopError(Exception):
    """Base class for all engine errors."""


class ParseError(LoopError):
    """Loop file contains a malformed or non-integer token."""


class BadDimension(LoopError):
    """Declared order does not match the table body."""


class NotLatinSquare(LoopError):
    """A row or column repeats a value."""

    def __init__(self, axis, index, value):
        self.axis = axis  # "row" or "col"
        self.index = index
        self.value = value
        super().__init__(f"{axis}={index} repeats value {value}")


class NoIdentity(LoopError):
    """Element 0 is not a two-sided identity."""


class CrossLoop(LoopError):
    """Operands belong to different parent loops."""


class OrderOverflow(LoopError):
    """A guard on loop order, lattice size or element count was exceeded."""

    def __init__(self, guard, limit, requested):
        self.guard = guard
        self.limit = limit
        self.requested = requested
        super().__init__(f"{guard} guard: {requested} exceeds limit {limit}")


class NotNormal(LoopError):
    """Subloop is not normal; carries a witness triple (h, y, x)."""

    def __init__(self, witness=None):
        self.witness = witness
        detail = "" if witness is None else f" witness (h,y,x)={witness}"
        super().__init__(f"subloop is not normal{detail}")


class NotNested(LoopError):
    """Expected H to be contained in K."""


class NotASubloop(LoopError):
    """Element set is not closed under product and inverse."""


class NotCML(LoopError):
    """Operation requires the commutative Moufang law to hold."""


class NotCommutative(LoopError):
    """Operation requires a commutative loop."""


class DegreeMismatch(LoopError):
    """Permutations act on different point sets."""


class NotSubgroup(LoopError):
    """Claimed subgroup is not contained in the ambient group."""


class NotNilpotent(LoopError):
    """A group has a Sylow subgroup that is not normal."""


class ChainStalled(LoopError):
    """A normalizer chain stopped growing before reaching the top.

    Never expected on finite commutative Moufang loops; raising it
    signals a genuine theorem violation or an implementation bug.
    """


class OracleDisagreement(LoopError):
    """Randomized saturation runs returned different element sets.

    The saturation oracle is only meaningful when the result is
    independent of addition order; on loops where that uniqueness
    genuinely fails this error carries the two differing runs as
    evidence.
    """

    def __init__(self, first, second):
        self.first = tuple(sorted(first))
        self.second = tuple(sorted(second))
        super().__init__(
            f"saturation runs disagree: {self.first} vs {self.second}"
        )
