"""Age calculus for finite cyclic diagonal actions.

An element of Z/(m) acting with local eigenvalue exponents w_j (residues
mod m, tangent-fixed directions encoded as 0) has age
sum((k * w_j) mod m) / m at a fixed-point component. Ages above 1 at every
fixed component of every nontrivial element certify terminal quotient
singularities, ages at least 1 certify canonical ones, provided no
nontrivial element is a pseudo-reflection (fixes a codimension <= 1 set).

The projective fixed-point tables diagonalize the coordinate m-cycle on
projective (m-1)-space: the fixed components of the k-th power are the
projectivized eigenspaces, grouped by eigenvalue class, and the normal
weights at a component are the residues k(i - j) mod m over eigen-indices i
outside the component.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .dynamics import restricted_degree
from .errors import CapExceededError, PreconditionViolatedError

MAX_CYCLIC_ORDER = 64  # largest order tabulated; the tables grow as order^3


@dataclass(frozen=True)
class CyclicActionElement:
    """The k-th power of a generator of Z/(m), acting with the given weights."""

    order: int
    power: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise PreconditionViolatedError("group order must be positive")
        object.__setattr__(self, "power", self.power % self.order)
        object.__setattr__(self, "weights",
                          tuple(w % self.order for w in self.weights))

    def residues(self) -> tuple[int, ...]:
        return tuple((self.power * w) % self.order for w in self.weights)


def age(e: CyclicActionElement) -> Fraction:
    """Reid-Tai sum of the normalized residues."""
    return Fraction(sum(e.residues()), e.order)


@dataclass(frozen=True)
class FixedComponent:
    """One fixed-point component with its normal weights already scaled by k."""

    eigenclass: int
    dim: int
    weights: tuple[int, ...]
    age: Fraction

    @property
    def codim(self) -> int:
        return sum(1 for w in self.weights if w != 0)


def projective_cycle_fixed_data(m: int) -> dict[int, list[FixedComponent]]:
    """Fixed-point table of the coordinate m-cycle on projective (m-1)-space.

    For each nontrivial power k, the fixed components are indexed by the
    eigenvalue classes of the k-th power of the cycle; a class c collects
    the eigen-indices j with j k = c mod m, giving a projective component of
    dimension gcd(k, m) - 1 with normal residues k (i - j) mod m.
    """
    if m < 2:
        raise PreconditionViolatedError("need order at least 2")
    if m > MAX_CYCLIC_ORDER:
        raise CapExceededError(f"order {m} exceeds cap {MAX_CYCLIC_ORDER}")
    table: dict[int, list[FixedComponent]] = {}
    for k in range(1, m):
        g = gcd(k, m)
        components = []
        for c in sorted({(j * k) % m for j in range(m)}):
            indices = [j for j in range(m) if (j * k) % m == c]
            j0 = indices[0]
            weights = tuple(sorted((k * (i - j0)) % m
                                   for i in range(m) if i not in indices))
            components.append(FixedComponent(
                eigenclass=c, dim=g - 1, weights=weights, age=Fraction(sum(weights), m)))
        table[k] = components
    return table


class SingularityVerdict(enum.Enum):
    TERMINAL = "terminal"
    CANONICAL = "canonical"
    NEITHER = "neither"
    SMOOTH = "smooth"


@dataclass(frozen=True)
class AgeEntry:
    power: int
    component: FixedComponent
    total_age: Fraction
    nonzero_weights: int


@dataclass(frozen=True)
class AgeReport:
    """Ages of every nontrivial element at every fixed component."""

    entries: tuple[AgeEntry, ...]
    min_age_nontrivial: Optional[Fraction]
    pseudo_reflection_found: bool
    verdict: SingularityVerdict


def _verdict_from(entries: Sequence[AgeEntry]) -> AgeReport:
    """The age criterion; no entries means the group is trivial."""
    if not entries:
        return AgeReport(entries=(), min_age_nontrivial=None,
                         pseudo_reflection_found=False,
                         verdict=SingularityVerdict.SMOOTH)
    min_age = min(e.total_age for e in entries)
    pseudo_reflection = any(e.nonzero_weights <= 1 for e in entries)
    if pseudo_reflection or min_age < 1:
        verdict = SingularityVerdict.NEITHER
    elif min_age > 1:
        verdict = SingularityVerdict.TERMINAL
    else:
        verdict = SingularityVerdict.CANONICAL
    return AgeReport(entries=tuple(entries), min_age_nontrivial=min_age,
                     pseudo_reflection_found=pseudo_reflection, verdict=verdict)


CERTIFIED_PROJECTIVE_ORDERS = (4, 6)


@dataclass(frozen=True)
class ProductQuotientReport:
    """Verdict for the cyclic quotient of projective space times a torus power.

    The group of order m acts on projective (m-1)-space as the coordinate
    cycle and on the n torus factors with the given nonzero weights; the
    scaling endomorphism multiplies the torus by r and raises projective
    coordinates to the power r^2, so q = r^2 and deg = q^(m + n - 1).
    Claims that are not computed here (anticanonical Iitaka dimension m - 1,
    maximal cover irregularity n) are reported, not verified.
    """

    m: int
    n: int
    r: int
    dim_x: int
    q: int
    deg_f: int
    age_report: AgeReport
    pseudo_reflection_free: bool
    inside_certified_window: bool
    verdict: SingularityVerdict
    reported_not_verified: dict


def product_quotient_report(m: int, n: int, r: int,
                            a_weights: Sequence[int]) -> ProductQuotientReport:
    """Assemble the diagonal action on projective space times a torus power
    and run the age criterion; see ProductQuotientReport."""
    if m < 1:
        raise PreconditionViolatedError("order must be positive")
    if r < 2:
        raise PreconditionViolatedError("scaling factor must be at least 2")
    q = r * r
    weights = tuple(w % m for w in a_weights)
    if m > 1:
        if not 0 < n < m:
            raise PreconditionViolatedError("need 0 < n < m torus factors")
        if len(weights) != n or any(w == 0 for w in weights):
            raise PreconditionViolatedError("need n nonzero torus weights mod m")

    # order 1 has no projective factor left and no nontrivial element
    table = projective_cycle_fixed_data(m) if m > 1 else {}
    entries = []
    for k, components in table.items():
        abelian_residues = tuple((k * w) % m for w in weights)
        abelian_age = Fraction(sum(abelian_residues), m)
        abelian_nonzero = sum(1 for x in abelian_residues if x != 0)
        entries += [AgeEntry(power=k, component=comp, total_age=comp.age + abelian_age,
                             nonzero_weights=comp.codim + abelian_nonzero)
                    for comp in components]

    report = _verdict_from(entries)
    dim_x = m + n - 1
    return ProductQuotientReport(
        m=m, n=n, r=r, dim_x=dim_x, q=q,
        deg_f=restricted_degree(q, dim_x),
        age_report=report,
        pseudo_reflection_free=not report.pseudo_reflection_found,
        inside_certified_window=m in CERTIFIED_PROJECTIVE_ORDERS,
        verdict=report.verdict,
        reported_not_verified={
            "anticanonical_iitaka_dimension": m - 1,
            "max_quasi_etale_cover_irregularity": n,
        } if m > 1 else {},
    )
