"""Built-in verification corpus: every group of order at most 12, named."""

from __future__ import annotations

from functools import lru_cache

from . import groups as g


@lru_cache(maxsize=1)
def corpus_groups() -> tuple[tuple[str, g.FiniteGroup], ...]:
    """All 24 isomorphism classes of groups of order <= 12."""
    C = g.cyclic
    P = g.direct_product
    return (
        ("C1", C(1)),
        ("C2", C(2)),
        ("C3", C(3)),
        ("C4", C(4)),
        ("C2xC2", P(C(2), C(2))),
        ("C5", C(5)),
        ("C6", C(6)),
        ("S3", g.dihedral(3)),
        ("C7", C(7)),
        ("C8", C(8)),
        ("C4xC2", P(C(4), C(2))),
        ("C2xC2xC2", P(P(C(2), C(2)), C(2))),
        ("D4", g.dihedral(4)),
        ("Q8", g.quaternion8()),
        ("C9", C(9)),
        ("C3xC3", P(C(3), C(3))),
        ("C10", C(10)),
        ("D5", g.dihedral(5)),
        ("C11", C(11)),
        ("C12", C(12)),
        ("C6xC2", P(C(6), C(2))),
        ("D6", g.dihedral(6)),
        ("A4", g.alternating4()),
        ("Dic3", g.dicyclic3()),
    )


def corpus_group(name: str) -> g.FiniteGroup:
    for n, G in corpus_groups():
        if n == name:
            return G
    raise KeyError(name)

