"""Exception types and the check verdict shared across the package."""

from dataclasses import dataclass


@dataclass
class Verdict:
    """Outcome of a check: truthy when it holds, else a reason and witness."""

    ok: bool
    reason: str = ""
    witness: object = None

    def __bool__(self):
        return self.ok


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


class ObjectMismatch(ValueError):
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
        super().__init__(f"{source}:{line}: {message}")
