"""Multivariate polynomials with exact rational coefficients.

Terms are kept sorted with no zero coefficients, so equality of
representations is equality of polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

__all__ = ["Poly", "eval_compiled"]


@dataclass(frozen=True)
class Poly:
    nvars: int
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def make(nvars: int, coeffs: Mapping[tuple[int, ...], object]) -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for exp, c in coeffs.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent {exp} for {nvars} variables")
            c = Fraction(c)
            if c:
                acc[exp] = acc.get(exp, Fraction(0)) + c
        terms = tuple(sorted((e, c) for e, c in acc.items() if c))
        return Poly(nvars, terms)

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, ())

    @staticmethod
    def constant(nvars: int, c) -> "Poly":
        return Poly.make(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        exp = [0] * nvars
        exp[i] = 1
        return Poly.make(nvars, {tuple(exp): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def _check_same_vars(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_vars(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return Poly(self.nvars, tuple(sorted((e, c) for e, c in acc.items() if c)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, tuple((e, c * k) for e, k in self.terms))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_vars(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return Poly(self.nvars, tuple(sorted((e, c) for e, c in acc.items() if c)))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def diff(self, i: int) -> "Poly":
        """Partial derivative with respect to variable i."""
        acc: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms:
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            acc[tuple(ne)] = acc.get(tuple(ne), Fraction(0)) + c * e[i]
        return Poly(self.nvars, tuple(sorted(acc.items())))

    @cached_property
    def float_terms(self) -> tuple[tuple[float, tuple[tuple[int, int], ...]], ...]:
        """The terms compiled once for evaluation: (float coefficient,
        ((variable, exponent), ...) for the nonzero exponents)."""
        return tuple(
            (float(c), tuple((v, k) for v, k in enumerate(e) if k)) for e, c in self.terms
        )

    def eval_float(self, point: Sequence[float]) -> float:
        return eval_compiled((self.float_terms,), point)[0]

    def substitute(self, inner: "Poly") -> "Poly":
        """Composition for univariate self: returns self(inner)."""
        if self.nvars != 1:
            raise ValueError("substitution requires a univariate polynomial")
        out = Poly.zero(inner.nvars)
        for e, c in self.terms:
            out = out + (inner ** e[0]).scale(c)
        return out

    def coefficient_vector(self, up_to_degree: int) -> list[Fraction]:
        """Univariate dense coefficients [c_0, ..., c_d]."""
        if self.nvars != 1:
            raise ValueError("coefficient_vector requires a univariate polynomial")
        vec = [Fraction(0)] * (up_to_degree + 1)
        for e, c in self.terms:
            if e[0] > up_to_degree:
                raise ValueError("degree exceeds bound")
            vec[e[0]] = c
        return vec

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.terms:
            mono = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def eval_compiled(compiled: Sequence[tuple], point: Sequence[float]) -> list[float]:
    """The values at a point of floats of the polynomials whose
    `Poly.float_terms` are `compiled`. Each term is its coefficient times the
    powers of the variables in index order, and the terms are summed in
    order. A power too large for a float raises OverflowError."""
    out = []
    for terms in compiled:
        total = 0.0
        for term, powers in terms:
            for v, k in powers:
                term *= point[v] ** k
            total += term
        out.append(total)
    return out
