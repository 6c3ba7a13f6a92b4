"""Exception types and the check verdict shared across the package."""


class Verdict:
    """Outcome of a check: truthy when it holds, else a reason and a
    witness (None when there is none).  `lines` are the report lines that
    follow the verdict line when it is rendered, a new list by default."""

    def __init__(
        self, ok: bool, reason: str = "", witness: object = None,
        lines: list[str] | None = None,
    ):
        self.ok = ok
        self.reason = reason
        self.witness = witness
        self.lines = [] if lines is None else lines

    def __eq__(self, other):
        return self is other or (
            other.__class__ is self.__class__
            and (self.ok, self.reason, self.witness, self.lines)
            == (other.ok, other.reason, other.witness, other.lines)
        )

    def __repr__(self):
        return (
            f"Verdict(ok={self.ok!r}, reason={self.reason!r}, "
            f"witness={self.witness!r}, lines={self.lines!r})"
        )

    def __bool__(self):
        return self.ok

    def render(self) -> str:
        """`PASS`, or `FAIL <reason>` and ` (witness <w>)` when there is a
        witness, followed by the report lines."""
        first = "PASS" if self.ok else f"FAIL {self.reason}"
        if not self.ok and self.witness is not None:
            first += f" (witness {self.witness})"
        return "\n".join([first, *self.lines])


class NotAGroup(ValueError):
    """A multiplication table violates a group axiom.

    Carries the failed axiom name and a witness (element tuple or None).
    """

    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"not a group: {axiom} fails, witness={witness!r}")


class NotPrime(ValueError):
    def __init__(self, n):
        self.n = n
        super().__init__(f"{n} is not prime")


class NotNormal(ValueError):
    """Subgroup is not normal; witness is a (g, n) conjugation pair."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"subgroup is not normal, witness={witness!r}")


class GroupMismatch(ValueError):
    pass


class IncoherentFamily(ValueError):
    """A stage family lacks the required coherence; carries stage and witness."""

    def __init__(self, stage, witness=None):
        self.stage = stage
        self.witness = witness
        super().__init__(f"incoherent family at stage {stage}: {witness!r}")


class ParseError(ValueError):
    def __init__(self, source, line, message):
        self.source = source
        self.line = line
        self.message = message
        super().__init__(f"{source}:{line}: {message}")
