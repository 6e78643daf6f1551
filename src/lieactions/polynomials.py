"""Multivariate polynomials with exact rational coefficients.

Terms are kept sorted with no zero coefficients, so equality of
representations is equality of polynomials.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from operator import index

from .constants import compile_function

__all__ = ["Poly", "compile_float"]


class Poly(namedtuple("Poly", "nvars terms")):
    """A polynomial in `nvars` variables; `terms` is a sorted tuple of
    (exponent tuple, nonzero Fraction) pairs."""

    # A tuple would repeat itself under `2 * poly`.
    __rmul__ = None

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

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def _check_same_vars(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):  # so that `poly + 2` is a TypeError
            return NotImplemented
        self._check_same_vars(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return Poly(self.nvars, tuple(sorted((e, c) for e, c in acc.items() if c)))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, tuple((e, c * k) for e, k in self.terms))

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):  # so that `poly * 2` is a TypeError
            return NotImplemented
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


# The factors of a term that one statement of a compiled evaluator multiplies:
# a term in more variables goes on over several statements, so that no
# expression of the generated source nests deeper than this, whatever the
# polynomial.
_FACTORS_PER_STATEMENT = 16


def compile_float(polys: Sequence[Poly]):
    """The polynomials `polys`, all in the same n variables, compiled once
    into f(x0, ..., x{n-1}), which returns the tuple of their values at a
    point of floats.

    Each value is summed from 0.0 in the order of the terms, one statement
    per term; a term is its coefficient times the powers x ** k of its
    variables in index order (x itself for k = 1, which `x ** 1` returns
    unchanged). A power beyond the float range raises OverflowError. The
    source holds only identifiers and integers: the coefficients are bound
    as the globals c0, c1, ... of the evaluator (`constants.compile_function`).
    """
    n = polys[0].nvars if polys else 0
    coeffs = {}
    body = []
    for j, poly in enumerate(polys):
        if not poly.terms:
            body.append(f"v{j} = 0.0")
        for t, (exp, c) in enumerate(poly.terms):
            name = f"c{len(coeffs)}"
            coeffs[name] = float(c)
            factors = [name] + [f"x{i}" if k == 1 else f"x{i} ** {index(k)}" for i, k in enumerate(exp) if k]
            value = " * ".join(factors[:_FACTORS_PER_STATEMENT])
            if len(factors) > _FACTORS_PER_STATEMENT:
                body.append(f"t = {value}")
                body.extend(f"t = t * {' * '.join(factors[a:a + _FACTORS_PER_STATEMENT])}"
                            for a in range(_FACTORS_PER_STATEMENT, len(factors), _FACTORS_PER_STATEMENT))
                value = "t"
            body.append(f"v{j} += {value}" if t else f"v{j} = 0.0 + {value}")
    lines = [f"def f({', '.join(f'x{i}' for i in range(n))}):"]
    lines += [f"    {line}" for line in body]
    lines.append(f"    return ({''.join(f'v{j}, ' for j in range(len(polys)))})")
    return compile_function(lines, "f", "<float evaluator>", **coeffs)
