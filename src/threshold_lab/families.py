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
Lebesgue-measure estimation honest in any dimension.  One guarded map
takes a matrix of parameter vectors to member parameters (the template's
shift and scale, or the mixture weights); ``instantiate``, the array
evaluators ``cdf_at`` / ``pdf_at`` and the factories all go through it.
Every member parameter is affine in x (bilinear for location_scale), so
the factories check a family by running that map on the 2^k box corners.

``certify`` produces executable evidence for the three structural
requirements a family must meet before a coincidence sweep is meaningful:
twice-smoothness of every member, parameter-linearity of the density, and
responsiveness (every small parameter perturbation actually moves the
CDF).  Location and location-scale families honestly fail the linearity
check; the sweep machinery accepts them anyway and reports the flag.  All
three checks evaluate their members as arrays through the same dispatch
as ``cdf_at`` / ``pdf_at`` (the smoothness check also asks it for pdf').
Responsiveness is not the condition the measure-zero argument needs; see
the ``genericity`` module docstring.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    CDF_PDF_TOL,
    PDF_PRIME_TOL,
    ScalarDistribution,
    _evaluate_mixture,
    _fd_errors,
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
#: responsiveness centers evaluated per array pass
_PROBE_BLOCK = 32


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
    """A k-parameter cost family; build via the factory helpers.

    ``instantiate(x)`` builds the member distribution at one parameter
    vector; ``cdf_at(t, xs)`` and ``pdf_at(t, xs)`` evaluate F(t | x) and
    f(t | x) for every row of an (n, k) parameter matrix in one array
    pass, bit-identical to ``instantiate(x).cdf(t)`` / ``.pdf(t)`` row by
    row.  Direct construction skips the factory's box-corner checks; all
    three methods still guard every call through ``_members``.
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
        member = self._members(np.atleast_1d(np.asarray(x, dtype=float))[None])[0]
        if self.kind == "mixture_linear":
            return ScalarDistribution("mixture", (), tuple((float(w), d) for w, d in zip(member, self.basis)))
        return self.template.affine(*(float(v) for v in member))

    def cdf_at(self, t, xs) -> np.ndarray:
        """F(t | x) for every row x of an (n, k) parameter matrix.

        ``t`` is a scalar, or an array whose first axis runs over the rows
        (length n, or 1 to share the trailing points among all rows); the
        result has shape (n,) or (n,) + t.shape[1:].  Performs the same
        float operations as ``instantiate(x).cdf(t)``, so every element is
        bit-identical to the scalar path, and raises what ``instantiate``
        raises, through the same guard.
        """
        return self._eval_at("cdf", t, xs)

    def pdf_at(self, t, xs) -> np.ndarray:
        """Density f(t | x) for every row x; the ``cdf_at`` counterpart,
        bit-identical to ``instantiate(x).pdf(t)`` and floored at
        PDF_FLOOR the same way, with the same guard."""
        return self._eval_at("pdf", t, xs)

    def _eval_at(self, what: str, t, xs) -> np.ndarray:
        # ``what`` as in ScalarDistribution.evaluate; one member per row,
        # its parameter columns broadcast over t's trailing axes
        t = np.asarray(t, dtype=float)
        members = self._members(xs)
        cols = members.T.reshape(members.shape[::-1] + (1,) * max(t.ndim - 1, 0))
        if self.kind == "mixture_linear":
            return _evaluate_mixture(what, zip(cols, self.basis), t)
        return self.template.evaluate(what, t, *cols)

    def _members(self, xs) -> np.ndarray:
        """The one guarded map from an (n, k) parameter matrix to member
        parameters: for the location kinds the rows themselves, the
        template's shift (and scale), and for mixture_linear the rows of
        mixture weights.

        Raises OutOfBoxError for a wrong column count or a row outside the
        box, DegenerateWeightsError for a nonpositive weight, and
        DistributionError for a member whose location or scale is not
        finite or whose scale is not positive: the checks that building
        the member as a ScalarDistribution makes.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.k:
            raise OutOfBoxError(f"expected an (n, {self.k}) parameter matrix, got shape {xs.shape}")
        inside = np.all((xs >= self.box.lower) & (xs <= self.box.upper), axis=1)
        if not inside.all():
            x = xs[np.argmin(inside)]
            raise OutOfBoxError(f"x = {x.tolist()} outside box [{self.box.lower}, {self.box.upper}]")
        if self.kind == "mixture_linear":
            w = self.weights(xs)
            if np.any(w <= 0.0):
                row = int(np.argmin(w.min(axis=1)))
                raise DegenerateWeightsError(
                    f"x = {xs[row].tolist()} implies a nonpositive mixture weight {w[row].min()!r}"
                )
            return w
        if not self._box_members_valid:
            valid = self._valid_members(xs)
            if not valid.all():
                raise DistributionError(
                    f"x = {xs[np.argmin(valid)].tolist()} gives a member with a non-finite "
                    "location or scale, or a nonpositive scale"
                )
        return xs

    @functools.cached_property
    def _box_members_valid(self) -> bool:
        # every member parameter is monotone in each coordinate of x, and
        # so is its rounding: valid members at the box corners make every
        # member in the box valid, and its rows need no check of their own
        return bool(self._valid_members(self.box.corners()).all())

    def _valid_members(self, xs) -> np.ndarray:
        # per row: every leaf of the template, moved by shift + scale * X,
        # has a finite location and a finite positive scale
        shift, scale = xs[:, 0], (xs[:, 1] if self.kind == "location_scale" else 1.0)
        valid = np.ones(len(xs), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for loc, s in _leaf_params(self.template):
                valid &= np.isfinite(shift + scale * loc) & (0.0 < scale * s) & (scale * s < math.inf)
        return valid


def _leaf_params(d: ScalarDistribution):
    """(loc, scale) of every non-mixture component of d, nested mixtures included."""
    if d.kind != "mixture":
        return [d.params]
    return [p for _, comp in d.components for p in _leaf_params(comp)]


def _check_corners(fam: CostFamily) -> CostFamily:
    """Run the member guard at every box corner.

    Every member parameter is affine in x (bilinear for location_scale),
    so it takes its extremes at the corners: a member that cannot be
    built somewhere in the box cannot be built at some corner.
    """
    fam._members(fam.box.corners())
    return fam


def mixture_linear_family(basis, box: ParameterBox) -> CostFamily:
    basis = tuple(basis)
    if box.k != len(basis) - 1:
        raise DistributionError(
            f"mixture_linear over {len(basis)} basis members needs a {len(basis) - 1}-d box, "
            f"got {box.k}-d"
        )
    return _check_corners(CostFamily("mixture_linear", box, basis=basis))


def location_family(template: ScalarDistribution, box: ParameterBox) -> CostFamily:
    if box.k != 1:
        raise DistributionError(f"location family needs a 1-d box, got {box.k}-d")
    return _check_corners(CostFamily("location", box, template=template))


def location_scale_family(template: ScalarDistribution, box: ParameterBox) -> CostFamily:
    if box.k != 2:
        raise DistributionError(f"location_scale family needs a 2-d box, got {box.k}-d")
    if box.lower[1] <= 0.0:
        raise DistributionError("location_scale box must keep the scale axis positive")
    return _check_corners(CostFamily("location_scale", box, template=template))


def make_cost_family(kind, box: ParameterBox, template=None, basis=None) -> CostFamily:
    if kind == "mixture_linear":
        return mixture_linear_family(basis or (), box)
    if kind == "location":
        return location_family(template, box)
    if kind == "location_scale":
        return location_scale_family(template, box)
    raise DistributionError(f"unknown family kind {kind!r}; supported: {', '.join(_KINDS)}")


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
    """Finite-difference self-consistency of family members.

    Draws random (x, t) pairs and verifies, one member per pair in one
    array pass, that pdf matches the centered difference of cdf (tol
    CDF_PDF_TOL) and pdf' matches the centered difference of pdf (tol
    PDF_PRIME_TOL), as ``derivative_consistency`` does for one
    distribution.  A nan error (a gumbel pdf' far in its left tail) does
    not count towards the maxima.
    """
    rng = np.random.default_rng(seed)
    xs = fam.box.sample(rng, n_points)
    ts = rng.uniform(-8.0, 8.0, n_points)
    errs = _fd_errors(lambda what, t: fam._eval_at(what, t, xs), ts)
    worst_cdf, worst_pdf = (float(np.fmax.reduce(e, initial=0.0)) for e in errs)
    ok = worst_cdf < CDF_PDF_TOL and worst_pdf < PDF_PRIME_TOL
    return ok, {"max_cdf_err": worst_cdf, "max_pdf_err": worst_pdf, "n_points": n_points}


def check_linearity(fam: CostFamily, n_triples: int = 50, n_points: int = 20, seed: int = 0):
    """Does f(.|a*x + (1-a)*y) equal the a-blend of densities?

    Exact (to 1e-10) for mixture_linear by construction; location and
    location-scale families fail with O(1) errors.  Each triple's row of
    draws is (x, y, a), in the order of one ``box.sample(rng, 2)`` and one
    ``rng.uniform()`` per triple.
    """
    rng = np.random.default_rng(seed)
    ts = rng.uniform(-6.0, 6.0, (1, n_points))
    lower, upper = fam.box.lower, fam.box.upper
    draws = rng.uniform((*lower, *lower, 0.0), (*upper, *upper, 1.0), (n_triples, 2 * fam.k + 1))
    x, y, alpha = draws[:, : fam.k], draws[:, fam.k : -1], draws[:, -1:]
    mid = alpha * x + (1.0 - alpha) * y
    blend = alpha * fam.pdf_at(ts, x) + (1.0 - alpha) * fam.pdf_at(ts, y)
    worst = float(np.max(np.abs(fam.pdf_at(ts, mid) - blend), initial=0.0))
    return worst < LINEARITY_TOL, {"max_blend_err": worst, "n_triples": n_triples}


def check_responsiveness(fam: CostFamily, epsilon: float = 0.01, n_probe: int = 200, seed: int = 0):
    """Does every small single-parameter perturbation move the CDF somewhere?

    For random centers x, each coordinate is perturbed separately by a
    nonzero draw from [-epsilon, epsilon] (clipped into the box) and the
    sup over a 401-point grid of |F(t|x) - F(t|x')| must exceed
    RESPONSIVENESS_MIN_MOVE for every probe.  Axis-wise probing is what
    the coincidence argument leans on: a family whose members ignore one
    coordinate must be caught even though joint perturbations would move
    the CDF through the other coordinates.  A perturbation that clipping
    cancels is not run.  The probes are evaluated in blocks of
    ``_PROBE_BLOCK`` centers to bound the size of the CDF arrays.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    rng = np.random.default_rng(seed)
    ts = np.linspace(-10.0, 10.0, 401)[None, :]
    centers = fam.box.sample(rng, n_probe)
    # row i holds center i's per-axis deltas, drawn center by center
    deltas = rng.uniform(-epsilon, epsilon, (n_probe, fam.k))
    sups = [np.empty(0)]
    for b in range(0, n_probe, _PROBE_BLOCK):
        # probe (i, axis): center i moved along that axis alone, clipped into the box
        x = np.repeat(centers[b : b + _PROBE_BLOCK], fam.k, axis=0)
        on_axis = np.tile(np.eye(fam.k, dtype=bool), (len(x) // fam.k, 1))
        x_prime = np.where(on_axis, fam.box.clip(x + deltas[b : b + _PROBE_BLOCK].reshape(-1, 1)), x)
        run = np.any(x_prime != x, axis=1)
        sups.append(np.max(np.abs(fam.cdf_at(ts, x[run]) - fam.cdf_at(ts, x_prime[run])), axis=1))
    sups = np.concatenate(sups)
    moved = int(np.count_nonzero(sups > RESPONSIVENESS_MIN_MOVE))
    ok = len(sups) > 0 and moved == len(sups)
    return ok, {
        "epsilon": epsilon,
        "n_probe": n_probe,
        "n_probes_run": len(sups),
        "n_moved": moved,
        "min_sup_move": float(sups.min()) if len(sups) else None,
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
