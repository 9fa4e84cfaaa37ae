"""Parameterized cost-distribution families over a convex parameter box.

A family maps a parameter vector x inside an axis-aligned box to a cost
distribution F(.|x).  Three constructions are supported:

* ``mixture_linear`` -- weights ``(x_1, ..., x_k, 1 - sum(x))`` over k+1
  fixed basis distributions; densities are exactly affine in x, so the
  blend identity f(.|a*x + (1-a)*y) = a*f(.|x) + (1-a)*f(.|y) holds by
  construction.
* ``location`` -- a base distribution translated by x_1 (k = 1).
* ``location_scale`` -- translated by x_1 and scaled by x_2 > 0 (k = 2).

Axis-aligned boxes are convex, make uniform sampling trivial, and keep
Lebesgue-measure estimation honest in any dimension.  Construction is the
one gate: a ``CostFamily``, built directly or by a factory, checks its
kind, its box's dimension and that its members can be built.  Every
member parameter (the template's shift and scale, or a mixture weight) is
affine in x (bilinear for location_scale), so it is monotone in each
coordinate, and so is its rounding: valid members at the box corners make
every member in the box valid.  A mixture weight is smallest at the lower
or the upper corner, so mixture_linear checks only those two, never all
2^k.  ``instantiate(x)`` and ``at(xs)`` then only check that their rows
lie in the box.  ``at(xs)`` checks them once and returns the members as
one cost, ``FamilyMembers``, whose ``cdf`` and ``pdf`` evaluate every row
in one array pass; a ``ModelConfig`` takes it in place of one cost
distribution, so the batched sweep kernels run the model's own functions.

``certify`` reports the three structural requirements a family must meet
before a coincidence sweep is meaningful.  Smoothness and
parameter-linearity of the density come from the kind.  Every family is
C-infinity in (t, x): a location family shifts a C-infinity catalog
template, a location_scale family also scales it by x_2 > 0, and a
mixture_linear family is affine in x over C-infinity basis members, so
nothing is measured for either flag.  mixture_linear has linearity by
construction, and no location or location-scale family over a box of
positive volume has it, since a density that shifts (or scales) with x
is not affine in x.  The sweep machinery accepts those kinds anyway and
reports the flag.  Responsiveness is the condition the measure-zero
argument uses: transversality of the coincidence set at the prevalence
pivot, in closed form (see ``certify`` and the ``genericity`` module
docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ScalarDistribution, _evaluate_mixture
from .errors import DegenerateWeightsError, DistributionError, OutOfBoxError

__all__ = [
    "ParameterBox",
    "CostFamily",
    "FamilyMembers",
    "FamilyCertificate",
    "make_cost_family",
    "location_family",
    "location_scale_family",
    "mixture_linear_family",
    "certify",
]

#: box dimension of each location kind
_LOCATION_DIMS = {"location": 1, "location_scale": 2}
#: smallest |dF(p | x)/dx_i| that counts as transversal at the pivot p
RESPONSIVENESS_MIN_MOVE = 1e-12


@dataclass(frozen=True)
class ParameterBox:
    """Axis-aligned box in R^k with positive volume."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise DistributionError("box needs matching, nonempty lower/upper bounds")
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DistributionError(f"box axis {i}: need finite lower < upper, got [{lo}, {hi}]")

    @property
    def k(self) -> int:
        return len(self.lower)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return x.shape == (self.k,) and bool(
            np.all(x >= self.lower) and np.all(x <= self.upper)
        )

    def corners(self) -> np.ndarray:
        """The 2^k corners; bit i of the row index picks axis i's upper bound."""
        upper = ((np.arange(2**self.k)[:, None] >> np.arange(self.k)) & 1).astype(bool)
        return np.where(upper, np.asarray(self.upper, dtype=float), self.lower)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.k))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True)
class CostFamily:
    """A k-parameter cost family, built directly or by the factory helpers.

    Construction is the family's one gate, the same for a direct call and
    a factory: it raises DistributionError for an unknown kind, a template
    or basis member that is not a ScalarDistribution, a box of the wrong
    dimension or, for location_scale, a scale axis that is not
    positive, and DegenerateWeightsError or DistributionError for a box
    corner whose member cannot be built (a nonpositive mixture weight; a
    location or scale that is not finite, or a scale that is not
    positive).  Member parameters are monotone in each coordinate (see the
    module docstring), so every member in the box can then be built.

    ``instantiate(x)`` builds the member distribution at one parameter
    vector; ``at(xs)`` gives the members at every row of an (n, k)
    parameter matrix as one cost, ``FamilyMembers``, whose evaluations are
    bit-identical to ``instantiate`` row by row.  Both raise OutOfBoxError
    for a row outside the box.
    """

    kind: str
    box: ParameterBox
    basis: tuple[ScalarDistribution, ...] = ()
    template: ScalarDistribution | None = None

    def __post_init__(self):
        if self.kind == "mixture_linear":
            if not all(isinstance(d, ScalarDistribution) for d in self.basis):
                raise DistributionError("mixture_linear basis members must be distributions")
            n = len(self.basis)
            if self.k != n - 1:
                raise DistributionError(f"mixture_linear over {n} basis members needs a {n - 1}-d box, got {self.k}-d")
            # x_i is smallest at the lower corner and 1 - sum(x) at the
            # upper one, so the other 2^k - 2 corners need no check
            ends = np.array([self.box.lower, self.box.upper])
            w = self.weights(ends)
            if np.any(w <= 0.0):
                row = int(np.argmin(w.min(axis=1)))
                raise DegenerateWeightsError(
                    f"x = {ends[row].tolist()} implies a nonpositive mixture weight {w[row].min()!r}"
                )
            return
        if self.kind not in _LOCATION_DIMS:
            kinds = ", ".join(("mixture_linear", *_LOCATION_DIMS))
            raise DistributionError(f"unknown family kind {self.kind!r}; supported: {kinds}")
        if not isinstance(self.template, ScalarDistribution):
            raise DistributionError(f"{self.kind} family needs a template distribution, got {self.template!r}")
        if self.k != _LOCATION_DIMS[self.kind]:
            raise DistributionError(f"{self.kind} family needs a {_LOCATION_DIMS[self.kind]}-d box, got {self.k}-d")
        if self.kind == "location_scale" and self.box.lower[1] <= 0.0:
            raise DistributionError("location_scale box must keep the scale axis positive")
        # per corner: every leaf of the template, moved by shift + scale * X,
        # has a finite location and a finite positive scale
        corners = self.box.corners()
        shift, scale = corners[:, 0], (corners[:, 1] if self.kind == "location_scale" else 1.0)
        valid = np.ones(len(corners), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for loc, s in _leaf_params(self.template):
                valid &= np.isfinite(shift + scale * loc) & (0.0 < scale * s) & (scale * s < math.inf)
        if not valid.all():
            raise DistributionError(
                f"x = {corners[np.argmin(valid)].tolist()} gives a member with a non-finite "
                "location or scale, or a nonpositive scale"
            )

    @property
    def k(self) -> int:
        return self.box.k

    def weights(self, x) -> np.ndarray:
        """Mixture weights (x_1, ..., x_k, 1 - sum(x)) for mixture_linear.

        ``x`` is one parameter vector or an (n, k) matrix of them; the
        weights are appended along the last axis.
        """
        x = np.asarray(x, dtype=float)
        return np.concatenate([x, 1.0 - x.sum(axis=-1, keepdims=True)], axis=-1)

    def instantiate(self, x) -> ScalarDistribution:
        """Cost distribution at parameter vector x (must lie in the box)."""
        member = self._members(np.atleast_1d(np.asarray(x, dtype=float))[None])[0]
        if self.kind == "mixture_linear":
            return ScalarDistribution("mixture", (), tuple((float(w), d) for w, d in zip(member, self.basis)))
        return self.template.affine(*(float(v) for v in member))

    def at(self, xs) -> "FamilyMembers":
        """The members at every row x of an (n, k) parameter matrix, as one
        cost (see ``FamilyMembers``).  Raises OutOfBoxError for a wrong
        column count or a row outside the box."""
        return FamilyMembers(self, self._members(xs))

    def _members(self, xs) -> np.ndarray:
        """The map from an (n, k) parameter matrix to member parameters:
        for the location kinds the rows themselves, the template's shift
        (and scale), and for mixture_linear the rows of mixture weights.

        Raises OutOfBoxError for a wrong column count or a row outside the
        box; construction made every member inside it valid.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.k:
            raise OutOfBoxError(f"expected an (n, {self.k}) parameter matrix, got shape {xs.shape}")
        inside = np.all((xs >= self.box.lower) & (xs <= self.box.upper), axis=1)
        if not inside.all():
            x = xs[np.argmin(inside)]
            raise OutOfBoxError(f"x = {x.tolist()} outside box [{self.box.lower}, {self.box.upper}]")
        return self.weights(xs) if self.kind == "mixture_linear" else xs


@dataclass(frozen=True, eq=False)
class FamilyMembers:
    """Members of a cost family at n parameter rows, evaluated as one cost.

    Built by ``CostFamily.at``, which checks the rows against the box
    once.  ``cdf(t)`` and ``pdf(t)`` evaluate F(t | x) and f(t | x) of
    every row in one array pass: ``t`` is a scalar, or an array whose first
    axis runs over the rows (length n, or 1 to share the trailing points
    among all rows), and the result has shape (n,) or (n,) + t.shape[1:].
    They perform the same float operations as ``instantiate(x).cdf(t)``
    and ``.pdf(t)`` (the density floored at PDF_FLOOR the same way), so
    every element is bit-identical to the scalar path.  ``members[rows]``
    keeps the rows that a slice or an index array selects.
    """

    family: CostFamily
    #: member parameters per row, as ``CostFamily._members`` gives them
    params: np.ndarray

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, rows) -> "FamilyMembers":
        return FamilyMembers(self.family, self.params[rows])

    def cdf(self, t) -> np.ndarray:
        return self._evaluate("cdf", t)

    def pdf(self, t) -> np.ndarray:
        return self._evaluate("pdf", t)

    def _evaluate(self, what: str, t) -> np.ndarray:
        # ``what`` as in ScalarDistribution.evaluate; one member per row,
        # its parameter columns broadcast over t's trailing axes
        t = np.asarray(t, dtype=float)
        cols = self.params.T.reshape(self.params.shape[::-1] + (1,) * max(t.ndim - 1, 0))
        if self.family.kind == "mixture_linear":
            return _evaluate_mixture(what, zip(cols, self.family.basis), t)
        return self.family.template.evaluate(what, t, *cols)


def _leaf_params(d: ScalarDistribution):
    """(loc, scale) of every non-mixture component of d, nested mixtures included."""
    if d.kind != "mixture":
        return [d.params]
    return [p for _, comp in d.components for p in _leaf_params(comp)]


def mixture_linear_family(basis, box: ParameterBox) -> CostFamily:
    return CostFamily("mixture_linear", box, basis=tuple(basis))


def location_family(template: ScalarDistribution, box: ParameterBox) -> CostFamily:
    return CostFamily("location", box, template=template)


def location_scale_family(template: ScalarDistribution, box: ParameterBox) -> CostFamily:
    return CostFamily("location_scale", box, template=template)


def make_cost_family(kind, box: ParameterBox, template=None, basis=None) -> CostFamily:
    if kind == "mixture_linear":
        return mixture_linear_family(basis or (), box)
    return CostFamily(kind, box, template=template)


@dataclass(frozen=True)
class FamilyCertificate:
    """The three structural requirements of a family.

    ``smooth_ok`` and ``linear_ok`` are the family's kind (every kind is
    smooth; only mixture_linear is linear); ``responsive_ok`` is
    transversality at the pivot, None when ``certify`` was given none.
    """

    smooth_ok: bool
    linear_ok: bool
    responsive_ok: bool | None

    @property
    def all_ok(self) -> bool:
        return bool(self.smooth_ok and self.linear_ok and self.responsive_ok)

    def summary(self) -> dict:
        return {
            "smooth_ok": self.smooth_ok,
            "linear_ok": self.linear_ok,
            "responsive_ok": self.responsive_ok,
        }


def certify(fam: CostFamily, pivot: float | None) -> FamilyCertificate:
    """Certify a family at the prevalence pivot p = r * gap(0).

    Smoothness and linearity are the kind (see the module docstring).
    ``responsive_ok`` says whether the coincidence set
    {x : F(p | x) = 1/2} is transversal, dF(p | x)/dx != 0, in closed
    form.  A location kind has F(p | x) = F0((p - x_1) / x_2) (x_2 = 1 for
    location), strictly falling in x_1 because every catalog density is
    positive, so it is True by kind.  A mixture_linear family has
    F(p | x) = sum_i x_i G_i(p) + (1 - sum(x)) G_{k+1}(p), whose gradient
    is the constant (G_i(p) - G_{k+1}(p)); it is True when some component
    exceeds RESPONSIVENESS_MIN_MOVE in magnitude.  With no pivot (the pair
    is not admissible) it is None.
    """
    if pivot is None:
        responsive_ok = None
    elif fam.kind == "mixture_linear":
        *g, last = (d.cdf(pivot) for d in fam.basis)
        responsive_ok = max(abs(gi - last) for gi in g) > RESPONSIVENESS_MIN_MOVE
    else:
        responsive_ok = True
    return FamilyCertificate(smooth_ok=True, linear_ok=fam.kind == "mixture_linear", responsive_ok=responsive_ok)
