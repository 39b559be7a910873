"""Finite intersection-lattice stand-in for a smooth projective surface.

A SurfaceModel carries a symmetric integer pairing of Hodge-index signature
(1, rank-1), a characteristic vector playing the canonical class, and a
finite list of prime-curve classes. Positivity notions (nef, ample,
pseudo-effective) are certified against the listed curves only, never
claimed for the ambient surface; reports carry that caveat.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from . import lattice
from .errors import (
    ModelInconsistent,
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


@dataclass(frozen=True)
class DivisorClass:
    """A rational divisor class in lattice coordinates."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(values: Iterable) -> "DivisorClass":
        return DivisorClass(tuple(Q(v) for v in values))

    @staticmethod
    def zero(rank: int) -> "DivisorClass":
        return DivisorClass(tuple(Q(0) for _ in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._match(other)
        return DivisorClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._match(other)
        return DivisorClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords))

    def scale(self, factor) -> "DivisorClass":
        f = Q(factor)
        return DivisorClass(tuple(f * a for a in self.coords))

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
    effectiveness flag. The flag is carried as metadata and echoed in
    reports; no computation branches on it."""

    name: str
    coords: tuple[int, ...]
    effective: bool = True


@dataclass(frozen=True)
class PositivityFlags:
    nef_model: bool
    big: bool
    ample_model: bool
    pseudo_effective_model: Optional[bool]


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
        curve_tuple = []
        for c in curves:
            if isinstance(c, CurveClass):
                curve_tuple.append(
                    CurveClass(c.name, tuple(int(x) for x in c.coords), c.effective)
                )
            else:
                cname, coords = c[0], c[1]
                effective = c[2] if len(c) > 2 else True
                curve_tuple.append(
                    CurveClass(str(cname), tuple(int(x) for x in coords), bool(effective))
                )
        return SurfaceModel(
            name=str(name),
            gram=tuple(tuple(int(x) for x in row) for row in gram),
            canonical=tuple(int(x) for x in canonical),
            curves=tuple(curve_tuple),
            ample_reference=(
                None
                if ample_reference is None
                else tuple(int(x) for x in ample_reference)
            ),
        )

    def __post_init__(self) -> None:
        self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        rank = len(self.gram)
        if rank == 0:
            raise ValidationError("gram: matrix must have positive rank")
        if any(len(row) != rank for row in self.gram):
            raise ValidationError("gram: matrix must be square")
        if not lattice.is_symmetric(self.gram):
            raise ValidationError("gram: matrix must be symmetric")
        sig = lattice.signature(self.gram)
        if sig != (1, rank - 1, 0):
            raise ValidationError(
                f"gram: signature must be (1, {rank - 1}, 0) as on a surface, got {sig}"
            )
        if len(self.canonical) != rank:
            raise ValidationError("canonical: wrong length")
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
            if len(curve.coords) != rank:
                raise ValidationError(f"{where}: wrong coordinate length")
            if all(x == 0 for x in curve.coords):
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
            if len(self.ample_reference) != rank:
                raise ValidationError("ample_reference: wrong length")
            href = DivisorClass.of(self.ample_reference)
            if not self.is_ample_model(href):
                raise ValidationError(
                    "ample_reference: class is not ample against the listed curves"
                )

    # -- basic pairing ---------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def canonical_class(self) -> DivisorClass:
        return DivisorClass.of(self.canonical)

    @cached_property
    def curve_rows(self) -> tuple[tuple[int, ...], ...]:
        """Integer rows G.C_i: pairing a divisor with curve i is one dot
        product with row i."""
        return tuple(
            tuple(sum(g * x for g, x in zip(row, c.coords)) for row in self.gram)
            for c in self.curves
        )

    @cached_property
    def curve_pairings(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(sum(g * x for g, x in zip(row, b.coords)) for b in self.curves)
            for row in self.curve_rows
        )

    def divisor(self, values: Iterable) -> DivisorClass:
        d = DivisorClass.of(values)
        if d.rank != self.rank:
            raise RankMismatch(f"divisor has rank {d.rank}, model has {self.rank}")
        return d

    def zero_divisor(self) -> DivisorClass:
        return DivisorClass.zero(self.rank)

    def curve_divisor(self, index: int) -> DivisorClass:
        return DivisorClass.of(self.curves[index].coords)

    def curve_index(self, name: str) -> int:
        for i, c in enumerate(self.curves):
            if c.name == name:
                return i
        raise UnknownCurveName(f"no curve named {name!r}")

    def divisor_from_curves(self, coefficients: Mapping[int, int | Fraction]) -> DivisorClass:
        # Summed before the conversion to Fraction, so integer coefficients
        # stay in integer arithmetic.
        total = [0] * self.rank
        for idx, coeff in coefficients.items():
            for j, x in enumerate(self.curves[idx].coords):
                if x:
                    total[j] += coeff * x
        return DivisorClass.of(total)

    def _cleared(self, d: DivisorClass) -> tuple[list[int], int]:
        """Integer numerators v and their common denominator m, d = v / m:
        the pairings sum in integers and build one Fraction at the end."""
        if d.rank != self.rank:
            raise RankMismatch("divisor rank does not match the model")
        m = lcm(*(c.denominator for c in d.coords))
        return [c.numerator * (m // c.denominator) for c in d.coords], m

    def intersect(self, d1: DivisorClass, d2: DivisorClass) -> Fraction:
        v1, m1 = self._cleared(d1)
        v2, m2 = self._cleared(d2)
        total = sum(
            x * sum(g * y for g, y in zip(row, v2) if y) for x, row in zip(v1, self.gram) if x
        )
        return Q(total, m1 * m2)

    def self_intersection(self, d: DivisorClass) -> Fraction:
        return self.intersect(d, d)

    def pair_curve(self, d: DivisorClass, index: int) -> Fraction:
        v, m = self._cleared(d)
        return Q(sum(x * g for x, g in zip(v, self.curve_rows[index]) if x), m)

    def scaled_curve_pairings(self, d: DivisorClass) -> tuple[list[int], int]:
        """The integers m*D.C_i for every listed curve, and m, the common
        denominator of d."""
        v, m = self._cleared(d)
        return [sum(x * g for x, g in zip(v, row) if x) for row in self.curve_rows], m

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

    # -- positivity flags --------------------------------------------------

    def is_nef_model(self, d: DivisorClass) -> bool:
        return all(self.pair_curve(d, i) >= 0 for i in range(len(self.curves)))

    def is_big(self, d: DivisorClass) -> bool:
        return self.self_intersection(d) > 0

    def is_ample_model(self, d: DivisorClass) -> bool:
        return (
            self.is_big(d)
            and all(self.pair_curve(d, i) > 0 for i in range(len(self.curves)))
        )

    def is_pseudo_effective_model(self, d: DivisorClass) -> bool:
        if self.ample_reference is None:
            raise NoAmpleReference(
                "model declares no ample reference class; cannot certify "
                "pseudo-effectivity"
            )
        return self.intersect(d, DivisorClass.of(self.ample_reference)) >= 0

    def positivity(self, d: DivisorClass) -> PositivityFlags:
        pseudo = None
        if self.ample_reference is not None:
            pseudo = self.is_pseudo_effective_model(d)
        return PositivityFlags(
            nef_model=self.is_nef_model(d),
            big=self.is_big(d),
            ample_model=self.is_ample_model(d),
            pseudo_effective_model=pseudo,
        )

    # -- exceptional configurations ---------------------------------------

    def curve_gram(self, indices: Sequence[int]) -> list[list[int]]:
        return [[self.curve_pairings[i][j] for j in indices] for i in indices]

    def exceptional_curves(self, a: DivisorClass) -> tuple[int, ...]:
        """Indices of listed curves orthogonal to a nef and big class a.

        The spanned Gram block must be negative definite; by the Hodge index
        shape of the lattice anything orthogonal to a big class is negative,
        so a failure here means the curve list is inconsistent.
        """
        pairings = [self.pair_curve(a, i) for i in range(len(self.curves))]
        if any(p < 0 for p in pairings):
            raise NotNefBig("class is not nef against the listed curves")
        if not self.is_big(a):
            raise NotNefBig("class needs positive self-intersection")
        exc = tuple(i for i, p in enumerate(pairings) if p == 0)
        if not lattice.is_negative_definite(self.curve_gram(exc)):
            raise ModelInconsistent(
                "curves orthogonal to a big class must span a negative "
                "definite block"
            )
        return exc

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
