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
2^k.  ``instantiate`` and the array evaluators ``cdf_at`` / ``pdf_at``
then only check that their rows lie in the box.

``certify`` reports the three structural requirements a family must meet
before a coincidence sweep is meaningful.  Parameter-linearity of the
density comes from the kind: mixture_linear has it by construction, and
no location or location-scale family over a box of positive volume has
it, since a density that shifts (or scales) with x is not affine in x.
The sweep machinery accepts those kinds anyway and reports the flag.  The
other two are measured: twice-smoothness of every member, and
responsiveness (every small parameter perturbation actually moves the
CDF).  Both checks evaluate their members as arrays through the same
dispatch as ``cdf_at`` / ``pdf_at`` (the smoothness check also asks it
for pdf').  Responsiveness is not the condition the measure-zero argument
needs; see the ``genericity`` module docstring.
"""

from __future__ import annotations

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
    "check_responsiveness",
    "certify",
]

#: box dimension of each location kind
_LOCATION_DIMS = {"location": 1, "location_scale": 2}
RESPONSIVENESS_MIN_MOVE = 1e-12
#: responsiveness centers whose probes share one full-grid array pass
_PROBE_BLOCK = 32
#: stride of the coarse t-grid that bounds each responsiveness probe's sup
_COARSE_STRIDE = 8


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
    vector; ``cdf_at(t, xs)`` and ``pdf_at(t, xs)`` evaluate F(t | x) and
    f(t | x) for every row of an (n, k) parameter matrix in one array
    pass, bit-identical to ``instantiate(x).cdf(t)`` / ``.pdf(t)`` row by
    row.  All three raise OutOfBoxError for a row outside the box.
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

    def cdf_at(self, t, xs) -> np.ndarray:
        """F(t | x) for every row x of an (n, k) parameter matrix.

        ``t`` is a scalar, or an array whose first axis runs over the rows
        (length n, or 1 to share the trailing points among all rows); the
        result has shape (n,) or (n,) + t.shape[1:].  Performs the same
        float operations as ``instantiate(x).cdf(t)``, so every element is
        bit-identical to the scalar path.
        """
        return self._eval_at("cdf", t, xs)

    def pdf_at(self, t, xs) -> np.ndarray:
        """Density f(t | x) for every row x; the ``cdf_at`` counterpart,
        bit-identical to ``instantiate(x).pdf(t)`` and floored at
        PDF_FLOOR the same way."""
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

    ``linear_ok`` is the family's kind (mixture_linear or not);
    ``smooth_ok`` and ``responsive_ok`` are measured, and ``evidence``
    holds their measurements under ``"smoothness"`` and
    ``"responsiveness"``.
    """

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
    distribution.  As there, a nan error (a gumbel pdf' far in its left
    tail) makes its maximum nan, which fails the check.
    """
    rng = np.random.default_rng(seed)
    xs = fam.box.sample(rng, n_points)
    ts = rng.uniform(-8.0, 8.0, n_points)
    errs = _fd_errors(lambda what, t: fam._eval_at(what, t, xs), ts)
    worst_cdf, worst_pdf = (float(np.max(e, initial=0.0)) for e in errs)
    ok = worst_cdf < CDF_PDF_TOL and worst_pdf < PDF_PRIME_TOL
    return ok, {"max_cdf_err": worst_cdf, "max_pdf_err": worst_pdf, "n_points": n_points}


def check_responsiveness(fam: CostFamily, epsilon: float = 0.01, n_probe: int = 200, seed: int = 0):
    """Does every small single-parameter perturbation move the CDF somewhere?

    For random centers x, each coordinate is perturbed separately by a
    nonzero draw from [-epsilon, epsilon] (clipped into the box) and the
    sup over a 401-point grid of |F(t|x) - F(t|x')| must exceed
    RESPONSIVENESS_MIN_MOVE for every probe.  Axis-wise probing is what
    the coincidence argument leans on: a family whose members ignore one
    coordinate must be caught even though joint perturbations would move
    the CDF through the other coordinates.  A perturbation that clipping
    or rounding cancels is not run.

    The evidence is that of the full 401-point sup of every probe, found
    coarse to fine.  One pass over all probes on every ``_COARSE_STRIDE``-th
    grid point (51 of 401) gives each probe a lower bound low <= sup: the
    coarse points are grid points, and ``cdf_at`` is elementwise, so they
    carry the same CDF values as on the full grid.  The full sup is then
    computed only where the bound leaves the evidence open: for every
    probe whose low does not exceed RESPONSIVENESS_MIN_MOVE (nan
    included), for the probe with the smallest low, and, repeatedly, for
    every probe whose low is below the smallest full sup found so far.
    Every other probe has sup >= low > RESPONSIVENESS_MIN_MOVE and
    sup >= low >= that smallest full sup, so ``n_moved`` and
    ``min_sup_move`` equal those of the full sups of all probes (the CDF
    values of the family's members are finite).  The full pass runs
    in blocks of ``_PROBE_BLOCK`` centers' worth of probes to bound the
    size of its CDF arrays; a family that does not respond sends every
    probe there.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    rng = np.random.default_rng(seed)
    ts = np.linspace(-10.0, 10.0, 401)[None, :]
    centers = fam.box.sample(rng, n_probe)
    # row i holds center i's per-axis deltas, drawn center by center
    deltas = rng.uniform(-epsilon, epsilon, (n_probe, fam.k))
    # probe (i, axis): center i moved along that axis alone, clipped into the box
    x = np.repeat(centers, fam.k, axis=0)
    on_axis = np.tile(np.eye(fam.k, dtype=bool), (n_probe, 1))
    x_prime = np.where(on_axis, fam.box.clip(x + deltas.reshape(-1, 1)), x)
    run = np.flatnonzero(np.any(x_prime != x, axis=1))
    coarse = ts[:, ::_COARSE_STRIDE]
    base = fam.cdf_at(coarse, centers)
    # each run probe's coarse lower bound, replaced by its full sup where refined
    sups = np.max(np.abs(base[run // fam.k] - fam.cdf_at(coarse, x_prime[run])), axis=1)
    exact = np.zeros(len(run), dtype=bool)
    refine = ~(sups > RESPONSIVENESS_MIN_MOVE)
    if len(run):
        refine[np.argmin(sups)] = True
    while refine.any():
        todo = np.flatnonzero(refine)
        for b in range(0, len(todo), _PROBE_BLOCK * fam.k):
            block = todo[b : b + _PROBE_BLOCK * fam.k]
            rows = run[block]
            sups[block] = np.max(np.abs(fam.cdf_at(ts, x[rows]) - fam.cdf_at(ts, x_prime[rows])), axis=1)
        exact |= refine
        refine = ~exact & (sups < sups[exact].min())
    moved = int(np.count_nonzero(sups > RESPONSIVENESS_MIN_MOVE))
    ok = len(sups) > 0 and moved == len(sups)
    return ok, {
        "epsilon": epsilon,
        "n_probe": n_probe,
        "n_probes_run": len(sups),
        "n_moved": moved,
        "min_sup_move": float(sups.min()) if len(sups) else None,
    }


def certify(fam: CostFamily) -> FamilyCertificate:
    """Certify a family: linearity from its kind, smoothness and
    responsiveness measured by their checks at the defaults."""
    smooth_ok, smooth_ev = check_smoothness(fam)
    responsive_ok, resp_ev = check_responsiveness(fam)
    return FamilyCertificate(
        smooth_ok=smooth_ok,
        linear_ok=fam.kind == "mixture_linear",
        responsive_ok=responsive_ok,
        evidence={"smoothness": smooth_ev, "responsiveness": resp_ev},
    )
