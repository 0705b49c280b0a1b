"""Workbench for two lexicographic ordered abelian groups and their series fields.

The package provides exact arithmetic and order for the two block
constructions, divisibility and congruence-lead bookkeeping, the
congruence-avoidance predicate and its tail sets, two order embeddings
with image tests and repair constructions, a small first-order formula
language with sound three-valued bounded evaluation, finite-support
series with t-adic valuation, and a CLI running the verification
suites.
"""

__version__ = "0.1.0"
