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
Lebesgue-measure estimation honest in any dimension.

``certify`` produces executable evidence for the three structural
requirements a family must meet before a coincidence sweep is meaningful:
twice-smoothness of every member, parameter-linearity of the density, and
responsiveness (every small parameter perturbation actually moves the
CDF).  Location and location-scale families honestly fail the linearity
check; the sweep machinery accepts them anyway and reports the flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    CDF_PDF_TOL,
    PDF_PRIME_TOL,
    ScalarDistribution,
    derivative_consistency,
)
from .errors import DegenerateWeightsError, DistributionError, OutOfBoxError

__all__ = [
    "ParameterBox",
    "CostFamily",
    "FamilyCertificate",
    "make_cost_family",
    "location_family",
    "location_scale_family",
    "mixture_linear_family",
    "check_smoothness",
    "check_linearity",
    "check_responsiveness",
    "certify",
]

_KINDS = ("mixture_linear", "location", "location_scale")
LINEARITY_TOL = 1e-10
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
        k = self.k
        out = np.empty((2**k, k))
        for j in range(2**k):
            for i in range(k):
                out[j, i] = self.upper[i] if (j >> i) & 1 else self.lower[i]
        return out

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.k))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True)
class CostFamily:
    """A k-parameter cost family; build via the factory helpers.

    ``instantiate(x)`` builds the member distribution at one parameter
    vector; ``cdf_at(t, xs)`` evaluates F(t | x) for every row of an
    (n, k) parameter matrix in one array pass, bit-identical to
    ``instantiate(x).cdf(t)`` row by row.  Direct construction skips the
    factory's well-formedness spot checks; both methods still guard every
    call.
    """

    kind: str
    box: ParameterBox
    basis: tuple[ScalarDistribution, ...] = ()
    template: ScalarDistribution | None = None

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
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.box.contains(x):
            raise OutOfBoxError(f"x = {x.tolist()} outside box [{self.box.lower}, {self.box.upper}]")
        if self.kind == "location":
            return self.template.shifted(float(x[0]))
        if self.kind == "location_scale":
            return self.template.affine(float(x[0]), float(x[1]))
        w = self.weights(x)
        if np.any(w <= 0.0):
            raise DegenerateWeightsError(
                f"x = {x.tolist()} implies a nonpositive mixture weight {w.min()!r}"
            )
        return ScalarDistribution(
            "mixture", (), tuple((float(wi), d) for wi, d in zip(w, self.basis))
        )

    def cdf_at(self, t: float, xs) -> np.ndarray:
        """F(t | x) for every row x of an (n, k) parameter matrix, shape (n,).

        Performs the same float operations as ``instantiate(x).cdf(t)``, so
        every element is bit-identical to the scalar path, and keeps its
        guards as array checks: OutOfBoxError for a wrong column count or
        any row outside the box, DegenerateWeightsError for any nonpositive
        mixture weight.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.k:
            raise OutOfBoxError(f"expected an (n, {self.k}) parameter matrix, got shape {xs.shape}")
        inside = np.all((xs >= self.box.lower) & (xs <= self.box.upper), axis=1)
        if not inside.all():
            x = xs[np.argmin(inside)]
            raise OutOfBoxError(f"x = {x.tolist()} outside box [{self.box.lower}, {self.box.upper}]")
        if self.kind == "location":
            return self.template.affine_cdf(t, xs[:, 0], 1.0)
        if self.kind == "location_scale":
            if np.any(xs[:, 1] <= 0.0):
                raise DistributionError(f"affine scale must be > 0, got {xs[:, 1].min()}")
            return self.template.affine_cdf(t, xs[:, 0], xs[:, 1])
        w = self.weights(xs)
        if np.any(w <= 0.0):
            row = int(np.argmin(w.min(axis=1)))
            raise DegenerateWeightsError(
                f"x = {xs[row].tolist()} implies a nonpositive mixture weight {w[row].min()!r}"
            )
        acc = 0.0
        for wi, d in zip(w.T, self.basis):
            acc = acc + wi * d.cdf(t)
        return np.clip(acc, 0.0, 1.0)


def mixture_linear_family(basis, box: ParameterBox) -> CostFamily:
    basis = tuple(basis)
    if box.k != len(basis) - 1:
        raise DistributionError(
            f"mixture_linear over {len(basis)} basis members needs a {len(basis) - 1}-d box, "
            f"got {box.k}-d"
        )
    fam = CostFamily("mixture_linear", box, basis=basis)
    # weights are affine in x, so positivity at every corner covers the box
    for corner in box.corners():
        w = fam.weights(corner)
        if np.any(w <= 0.0):
            raise DistributionError(
                f"box corner {corner.tolist()} implies nonpositive weight {w.min()!r}; "
                "shrink the box so every weight stays positive"
            )
    _spot_check(fam)
    return fam


def location_family(template: ScalarDistribution, box: ParameterBox) -> CostFamily:
    if box.k != 1:
        raise DistributionError(f"location family needs a 1-d box, got {box.k}-d")
    fam = CostFamily("location", box, template=template)
    _spot_check(fam)
    return fam


def location_scale_family(template: ScalarDistribution, box: ParameterBox) -> CostFamily:
    if box.k != 2:
        raise DistributionError(f"location_scale family needs a 2-d box, got {box.k}-d")
    if box.lower[1] <= 0.0:
        raise DistributionError("location_scale box must keep the scale axis positive")
    fam = CostFamily("location_scale", box, template=template)
    _spot_check(fam)
    return fam


def make_cost_family(kind, box: ParameterBox, template=None, basis=None) -> CostFamily:
    if kind == "mixture_linear":
        return mixture_linear_family(basis or (), box)
    if kind == "location":
        return location_family(template, box)
    if kind == "location_scale":
        return location_scale_family(template, box)
    raise DistributionError(f"unknown family kind {kind!r}; supported: {', '.join(_KINDS)}")


def _spot_check(fam: CostFamily, n_interior: int = 100) -> None:
    """Instantiate at every corner and at random interior points."""
    rng = np.random.default_rng(0)
    points = np.vstack([fam.box.corners(), fam.box.sample(rng, n_interior)])
    for x in points:
        fam.instantiate(x)


@dataclass(frozen=True)
class FamilyCertificate:
    """Executable evidence for the three structural requirements."""

    smooth_ok: bool
    linear_ok: bool
    responsive_ok: bool
    evidence: dict

    @property
    def all_ok(self) -> bool:
        return self.smooth_ok and self.linear_ok and self.responsive_ok

    def summary(self) -> dict:
        return {
            "smooth_ok": self.smooth_ok,
            "linear_ok": self.linear_ok,
            "responsive_ok": self.responsive_ok,
        }


def check_smoothness(fam: CostFamily, n_points: int = 20, seed: int = 0):
    """Finite-difference self-consistency of instantiated members.

    Draws random (x, t) pairs and verifies that pdf matches the centered
    difference of cdf (tol CDF_PDF_TOL) and pdf' matches the centered
    difference of pdf (tol PDF_PRIME_TOL).
    """
    rng = np.random.default_rng(seed)
    xs = fam.box.sample(rng, n_points)
    ts = rng.uniform(-8.0, 8.0, n_points)
    worst_cdf = worst_pdf = 0.0
    for x, t in zip(xs, ts):
        cdf_err, pdf_err = derivative_consistency(fam.instantiate(x), np.array([t]))
        worst_cdf = max(worst_cdf, cdf_err)
        worst_pdf = max(worst_pdf, pdf_err)
    ok = worst_cdf < CDF_PDF_TOL and worst_pdf < PDF_PRIME_TOL
    return ok, {"max_cdf_err": worst_cdf, "max_pdf_err": worst_pdf, "n_points": n_points}


def check_linearity(fam: CostFamily, n_triples: int = 50, n_points: int = 20, seed: int = 0):
    """Does f(.|a*x + (1-a)*y) equal the a-blend of densities?

    Exact (to 1e-10) for mixture_linear by construction; location and
    location-scale families fail with O(1) errors.
    """
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-6.0, 6.0, n_points)
    worst = 0.0
    for _ in range(n_triples):
        x, y = fam.box.sample(rng, 2)
        alpha = rng.uniform(0.0, 1.0)
        mid = alpha * x + (1.0 - alpha) * y
        blend = alpha * fam.instantiate(x).pdf(ts) + (1.0 - alpha) * fam.instantiate(y).pdf(ts)
        err = float(np.max(np.abs(fam.instantiate(mid).pdf(ts) - blend)))
        worst = max(worst, err)
    return worst < LINEARITY_TOL, {"max_blend_err": worst, "n_triples": n_triples}


def check_responsiveness(fam: CostFamily, epsilon: float = 0.01, n_probe: int = 200, seed: int = 0):
    """Does every small single-parameter perturbation move the CDF somewhere?

    For random centers x, each coordinate is perturbed separately by a
    nonzero draw from [-epsilon, epsilon] (clipped into the box) and the
    sup over a 401-point grid of |F(t|x) - F(t|x')| must exceed
    RESPONSIVENESS_MIN_MOVE for every probe.  Axis-wise probing is what
    the coincidence argument leans on: a family whose members ignore one
    coordinate must be caught even though joint perturbations would move
    the CDF through the other coordinates.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    rng = np.random.default_rng(seed)
    ts = np.linspace(-10.0, 10.0, 401)
    centers = fam.box.sample(rng, n_probe)
    smallest = math.inf
    probes = moved = 0
    for x in centers:
        base = fam.instantiate(x).cdf(ts)
        for axis in range(fam.k):
            delta = rng.uniform(-epsilon, epsilon)
            x_prime = x.copy()
            x_prime[axis] += delta
            x_prime = fam.box.clip(x_prime)
            if np.array_equal(x_prime, x):
                continue
            probes += 1
            sup = float(np.max(np.abs(base - fam.instantiate(x_prime).cdf(ts))))
            smallest = min(smallest, sup)
            if sup > RESPONSIVENESS_MIN_MOVE:
                moved += 1
    ok = probes > 0 and moved == probes
    return ok, {
        "epsilon": epsilon,
        "n_probe": n_probe,
        "n_probes_run": probes,
        "n_moved": moved,
        "min_sup_move": None if smallest is math.inf else smallest,
    }


def certify(fam: CostFamily, epsilon: float = 0.01, n_probe: int = 200, seed: int = 0) -> FamilyCertificate:
    """Run all three structural checks and bundle the evidence."""
    smooth_ok, smooth_ev = check_smoothness(fam, seed=seed)
    linear_ok, linear_ev = check_linearity(fam, seed=seed)
    responsive_ok, resp_ev = check_responsiveness(fam, epsilon=epsilon, n_probe=n_probe, seed=seed)
    return FamilyCertificate(
        smooth_ok=smooth_ok,
        linear_ok=linear_ok,
        responsive_ok=responsive_ok,
        evidence={"smoothness": smooth_ev, "linearity": linear_ev, "responsiveness": resp_ev},
    )
