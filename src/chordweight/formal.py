"""Finite formal sums with exact rational coefficients.

Terms can be anything hashable (chord diagrams, pairs of diagrams, ...).
Zero coefficients are never stored, so equality of sums is equality of
their coefficient mappings.
"""

from __future__ import annotations

from fractions import Fraction


class FormalSum:
    """An immutable rational linear combination of hashable terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        acc: dict = {}
        if terms is not None:
            items = terms.items() if hasattr(terms, "items") else terms
            for term, coeff in items:
                c = Fraction(coeff)
                if term in acc:
                    acc[term] += c
                else:
                    acc[term] = c
        self._terms = {t: c for t, c in acc.items() if c != 0}

    @classmethod
    def single(cls, term, coeff=1) -> "FormalSum":
        return cls([(term, coeff)])

    def coefficient(self, term) -> Fraction:
        return self._terms.get(term, Fraction(0))

    def items(self):
        """Term/coefficient pairs in a deterministic order."""
        return sorted(self._terms.items(), key=lambda tc: repr(tc[0]))

    def terms(self):
        return dict(self._terms)

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        merged = dict(self._terms)
        for t, c in other._terms.items():
            merged[t] = merged.get(t, Fraction(0)) + c
        return FormalSum(merged)

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FormalSum({t: -c for t, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self.items())

    def __repr__(self):
        if not self._terms:
            return "FormalSum(0)"
        parts = [f"{c}*{t!r}" for t, c in self.items()]
        return "FormalSum(" + " + ".join(parts) + ")"
