"""Finite intersection-lattice stand-in for a smooth projective surface.

A SurfaceModel carries a symmetric integer pairing of Hodge-index signature
(1, rank-1), a characteristic vector playing the canonical class, and a
finite list of prime-curve classes. Positivity notions (nef, ample,
pseudo-effective) are certified against the listed curves only, never
claimed for the ambient surface; reports carry that caveat. Every pairing
goes through one integer kernel, SurfaceModel.gram_times.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from . import lattice
from .errors import (
    NoAmpleReference,
    NonIntegralGenus,
    NotNefBig,
    RankMismatch,
    UnknownCurveName,
    ValidationError,
)

Q = Fraction

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Reserved in divisor expressions for the canonical class.
RESERVED_NAMES = frozenset({"K"})


def _entries(values, path: str, what: str) -> tuple:
    # A str is iterable, but a list of its characters is never what was meant.
    if not isinstance(values, str):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ValidationError(f"{path}: expected a list of {what}")


def _int_vector(values, path: str, size: int) -> tuple[int, ...]:
    """The size entries of values as ints, in one pass: an int as it is,
    any other type through _index."""
    items = _entries(values, path, "integers")
    if len(items) != size:
        raise ValidationError(f"{path}: expected {size} entries, got {len(items)}")
    return tuple(
        [x if type(x) is int else _index(x, f"{path}[{i}]") for i, x in enumerate(items)]
    )


def _index(x, path: str) -> int:
    # operator.index takes every integer type and no float, str or Fraction;
    # bool is an int subclass, but a bare true/false in a matrix is a mistake.
    if isinstance(x, bool) or not hasattr(x, "__index__"):
        raise ValidationError(f"{path}: expected an integer, got {x!r}")
    return operator.index(x)


# DivisorClass is frozen: its constructors set the fields through object.
_setattr = object.__setattr__


@dataclass(frozen=True, init=False)
class DivisorClass:
    """A rational divisor class in lattice coordinates: the integers num
    over one common denominator den, in lowest terms (den > 0 and
    gcd(den, *num) == 1). Equal classes therefore have equal fields, which
    is what == and hash compare. Arithmetic stays in integers with at most
    one gcd per result; coords gives the coordinates as Fractions."""

    num: tuple[int, ...]
    den: int

    def __init__(self, coords: Iterable) -> None:
        """coords: integers and Fractions. The least common denominator of
        reduced fractions leaves the numerators without a common factor."""
        coords = tuple(coords)
        den = lcm(*[c.denominator for c in coords])
        _setattr(self, "num", tuple(c.numerator * (den // c.denominator) for c in coords))
        _setattr(self, "den", den)

    @staticmethod
    def of(values: Iterable) -> "DivisorClass":
        """values: anything Fraction() reads, such as 2, "1/2" or Fraction(3, 4)."""
        return DivisorClass(map(Q, values))

    @staticmethod
    def from_integers(num: Iterable[int], den: int = 1) -> "DivisorClass":
        """The class num/den for integers num and den > 0, reduced."""
        num = tuple(num)
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(x // g for x in num)
                den //= g
        d = object.__new__(DivisorClass)
        _setattr(d, "num", num)
        _setattr(d, "den", den)
        return d

    @staticmethod
    def zero(rank: int) -> "DivisorClass":
        return DivisorClass.from_integers((0,) * rank)

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Q(x, den) for x in self.num)

    @property
    def rank(self) -> int:
        return len(self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def _combine(self, other: "DivisorClass", op) -> "DivisorClass":
        self._match(other)
        p, q = self.den, other.den
        if p == q:
            return DivisorClass.from_integers(map(op, self.num, other.num), p)
        return DivisorClass.from_integers(
            [op(x * q, y * p) for x, y in zip(self.num, other.num)], p * q
        )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, operator.add)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass.from_integers([-x for x in self.num], self.den)

    def scale(self, factor) -> "DivisorClass":
        f = Q(factor)
        p = f.numerator
        return DivisorClass.from_integers([p * x for x in self.num], f.denominator * self.den)

    def __rmul__(self, factor) -> "DivisorClass":
        return self.scale(factor)

    def _match(self, other: "DivisorClass") -> None:
        if self.rank != other.rank:
            raise RankMismatch(
                f"divisor ranks differ: {self.rank} vs {other.rank}"
            )


@dataclass(frozen=True)
class CurveClass:
    """A prime-curve class: integer coordinates plus a self-declared
    effectiveness flag. The flag is parsed, checked, stored and written
    back by surface_io.surface_to_data; no output prints it and no
    computation branches on it, so every listed curve counts as a prime
    curve."""

    name: str
    coords: tuple[int, ...]
    effective: bool = True


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    gram: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    curves: tuple[CurveClass, ...]
    ample_reference: Optional[tuple[int, ...]] = None

    @staticmethod
    def create(
        name: str,
        gram: Sequence[Sequence[int]],
        canonical: Sequence[int],
        curves: Iterable = (),
        ample_reference: Optional[Sequence[int]] = None,
    ) -> "SurfaceModel":
        """Check the shape and type of every field, then build the model,
        which checks the lattice rules. Nothing is rounded or parsed: entries
        are integers, a curve is a list or tuple (name, coords[, effective]),
        and an error names the field path as a model file spells it."""
        if not isinstance(name, str) or not name:
            raise ValidationError("name: expected a nonempty string")
        if not name.isprintable():
            # text output prints the name raw: a line break would forge lines
            raise ValidationError("name: expected printable characters, no line breaks")
        rows = _entries(gram, "gram", "rows")
        rank = len(rows)
        if rank == 0:
            raise ValidationError("gram: matrix must have positive rank")
        gram = tuple(_int_vector(row, f"gram[{i}]", rank) for i, row in enumerate(rows))
        canonical = _int_vector(canonical, "canonical", rank)
        curve_list = []
        for i, c in enumerate(_entries(curves, "curves", "curves")):
            path = f"curves[{i}]"
            if not isinstance(c, (list, tuple)) or len(c) not in (2, 3):
                raise ValidationError(f"{path}: expected (name, coords[, effective])")
            cname, coords, effective = c if len(c) == 3 else (*c, True)
            if not isinstance(cname, str):
                raise ValidationError(f"{path}.name: expected a string")
            coords = _int_vector(coords, f"{path}.coords", rank)
            if not isinstance(effective, bool):
                raise ValidationError(f"{path}.effective: expected true or false")
            curve_list.append(CurveClass(cname, coords, effective))
        if ample_reference is not None:
            ample_reference = _int_vector(ample_reference, "ample_reference", rank)
        return SurfaceModel(name, gram, canonical, tuple(curve_list), ample_reference)

    def __post_init__(self) -> None:
        self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        rank = len(self.gram)
        if not lattice.is_symmetric(self.gram):
            raise ValidationError("gram: matrix must be symmetric")
        sig = lattice.signature(self.gram)
        if sig != (1, rank - 1, 0):
            raise ValidationError(
                f"gram: signature must be (1, {rank - 1}, 0) as on a surface, got {sig}"
            )
        if not lattice.is_characteristic(self.canonical, self.gram):
            raise ValidationError(
                "canonical: vector is not characteristic; adjunction parity fails"
            )
        seen: set[str] = set()
        for idx, curve in enumerate(self.curves):
            where = f"curves[{idx}] ({curve.name!r})"
            if not _NAME_RE.match(curve.name):
                raise ValidationError(f"{where}: invalid curve name")
            if curve.name in RESERVED_NAMES:
                raise ValidationError(f"{where}: name is reserved")
            if curve.name in seen:
                raise ValidationError(f"{where}: duplicate curve name")
            seen.add(curve.name)
            if not self.curve_terms[idx]:
                raise ValidationError(f"{where}: curve class must be nonzero")
        # Distinct prime curves on a surface never meet negatively.
        for i in range(len(self.curves)):
            for j in range(i + 1, len(self.curves)):
                if self.curve_pairings[i][j] < 0:
                    raise ValidationError(
                        f"curves: {self.curves[i].name} . {self.curves[j].name} = "
                        f"{self.curve_pairings[i][j]} < 0 is impossible for distinct "
                        "prime curves"
                    )
        if self.ample_reference is not None:
            href = DivisorClass.from_integers(self.ample_reference)
            pairings = self.scaled_curve_pairings(href)[0]
            if self.self_intersection(href) <= 0 or not all(p > 0 for p in pairings):
                raise ValidationError(
                    "ample_reference: class is not ample against the listed curves"
                )

    # -- basic pairing ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def canonical_class(self) -> DivisorClass:
        return DivisorClass.from_integers(self.canonical)

    @cached_property
    def gram_terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The pairs (j, g) of the nonzero entries g of each Gram row, so
        that a pairing costs what the Gram matrix holds."""
        return tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in self.gram)

    @cached_property
    def curve_terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The pairs (j, x) of the nonzero coordinates x of each curve. Every
        sum over a curve's coordinates reads these, so it costs what the
        curve holds rather than the rank."""
        return tuple(tuple((j, x) for j, x in enumerate(c.coords) if x) for c in self.curves)

    def gram_times(self, num: Sequence[int]) -> list[int]:
        """G.v for integer coordinates v: x times row j of G, summed over the
        nonzero entries x = v_j and the gram_terms of row j; G is symmetric,
        so row j is column j. Every pairing of the model reads this kernel."""
        out = [0] * len(num)
        for x, terms in zip(num, self.gram_terms):
            if x:
                for k, g in terms:
                    out[k] += x * g
        return out

    def curve_sums(self, w: Sequence[int]) -> list[int]:
        """The sums of w_j x over the terms (j, x) of each curve: the
        pairings C_i.v of every listed curve when w = gram_times(v)."""
        return [sum([w[j] * x for j, x in t]) for t in self.curve_terms]

    @cached_property
    def curve_pairings(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.curve_sums(self.gram_times(c.coords))) for c in self.curves)

    def divisor(self, values: Iterable) -> DivisorClass:
        d = DivisorClass.of(values)
        if d.rank != self.rank:
            raise RankMismatch(f"divisor has rank {d.rank}, model has {self.rank}")
        return d

    def zero_divisor(self) -> DivisorClass:
        return self._zero

    @cached_property
    def _zero(self) -> DivisorClass:
        # one instance per model: DivisorClass is frozen
        return DivisorClass.zero(self.rank)

    def curve_divisor(self, index: int) -> DivisorClass:
        return DivisorClass.from_integers(self.curves[index].coords)

    def curve_index(self, name: str) -> int:
        for i, c in enumerate(self.curves):
            if c.name == name:
                return i
        raise UnknownCurveName(f"no curve named {name!r}")

    def divisor_from_curves(self, coefficients: Mapping[int, int], den: int = 1) -> DivisorClass:
        # The integer coefficients n_i of curves i give the class
        # sum_i n_i C_i / den, summed in integers and reduced once.
        total = [0] * self.rank
        for idx, coeff in coefficients.items():
            for j, x in self.curve_terms[idx]:
                total[j] += coeff * x
        return DivisorClass.from_integers(total, den)

    def _numerators(self, d: DivisorClass) -> tuple[int, ...]:
        if len(d.num) != len(self.gram):
            raise RankMismatch("divisor rank does not match the model")
        return d.num

    def intersect(self, d1: DivisorClass, d2: DivisorClass) -> Fraction:
        w = self.gram_times(self._numerators(d1))
        return Q(sum(map(operator.mul, w, self._numerators(d2))), d1.den * d2.den)

    def self_intersection(self, d: DivisorClass) -> Fraction:
        return self.intersect(d, d)

    def scaled_curve_pairings(self, d: DivisorClass) -> tuple[list[int], int]:
        """The integers m*D.C_i for every listed curve, and m = d.den, the
        common denominator of d. As m > 0, each has the sign of D.C_i."""
        return self.curve_sums(self.gram_times(self._numerators(d))), d.den

    def canonical_pairing(self, d: DivisorClass) -> Fraction:
        return self.intersect(self.canonical_class, d)

    def arithmetic_genus(self, d: DivisorClass) -> int:
        """Adjunction genus 1 + (D^2 + K.D)/2; by convention the zero
        divisor has genus 1."""
        if not d.is_integral:
            raise NonIntegralGenus("arithmetic genus needs integer coordinates")
        twice = self.self_intersection(d) + self.canonical_pairing(d)
        if twice.denominator != 1 or twice.numerator % 2:
            raise NonIntegralGenus(
                "D^2 + K.D came out odd; the canonical vector is not characteristic"
            )
        return 1 + twice.numerator // 2

    # -- positivity ----------------------------------------------------------

    def is_pseudo_effective_model(self, d: DivisorClass) -> bool:
        if self.ample_reference is None:
            raise NoAmpleReference(
                "model declares no ample reference class; cannot certify "
                "pseudo-effectivity"
            )
        return self.intersect(d, DivisorClass.from_integers(self.ample_reference)) >= 0

    # -- exceptional configurations ---------------------------------------

    def curve_gram(self, indices: Sequence[int]) -> list[list[int]]:
        return [[self.curve_pairings[i][j] for j in indices] for i in indices]

    def exceptional_curves(self, a: DivisorClass) -> tuple[int, ...]:
        """Indices of listed curves orthogonal to a nef and big class a,
        after checking that a is nef and big. By the Hodge index shape of
        the lattice their Gram block should be negative definite;
        bounds.Analysis checks that when it factors the block.
        """
        # one G.a gives both the curve pairings and A^2
        w = self.gram_times(self._numerators(a))
        pairings = self.curve_sums(w)
        if any(p < 0 for p in pairings):
            raise NotNefBig("class is not nef against the listed curves")
        if sum(map(operator.mul, w, a.num)) <= 0:
            raise NotNefBig("class needs positive self-intersection")
        return tuple(i for i, p in enumerate(pairings) if p == 0)

    def connected_components(
        self, indices: Sequence[int]
    ) -> tuple[tuple[int, ...], ...]:
        """Partition curve indices by the adjacency C_i.C_j > 0."""
        remaining = sorted(set(indices))
        components = []
        while remaining:
            stack = [remaining.pop(0)]
            comp = {stack[0]}
            while stack:
                cur = stack.pop()
                for other in list(remaining):
                    if self.curve_pairings[cur][other] > 0:
                        remaining.remove(other)
                        comp.add(other)
                        stack.append(other)
            components.append(tuple(sorted(comp)))
        return tuple(sorted(components))
