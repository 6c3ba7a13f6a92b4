"""Exact combinatorics of span categories and Mackey functors for finite
groups and truncated quotient towers.

Submodules:
  groups   finite groups, subgroup lattices, quotient maps, towers
  gsets    finite G-sets, inflation, hom factors, counit squares
  fincat   finite posets, chain colimits, functor families
  spans    span (Burnside) categories with exact multiset arithmetic,
           and Span(F) for inflation and fixed points
  mackey   Mackey functors over integral abelian-group presentations
  formats  line-based text formats with bit-exact round trips
  verify   theorem-level verification reports
  cli      command-line entry point
"""

__version__ = "0.1.0"
