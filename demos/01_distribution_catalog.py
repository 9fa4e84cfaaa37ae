"""Tour of the distribution catalog.

Every model quantity in threshold-lab reduces to CDF / PDF / PDF-slope
evaluations of full-support distributions, so the catalog is small and
fully closed-form: normal, logistic, gumbel, and finite mixtures.  This
script builds one of each and evaluates them at a few points, at the
infinite endpoints, and deep in a gumbel's left tail.  The test suite
checks the same evaluators against values recorded at 50 digits
(``tests/true_values.json``).
"""

import numpy as np

from threshold_lab import gumbel, logistic, mixture, normal

catalog = {
    "normal(0, 1)": normal(0.0, 1.0),
    "logistic(0, 1)": logistic(0.0, 1.0),
    "gumbel(0, 0.75)": gumbel(0.0, 0.75),
    "mixture 0.5 N(-1,1) + 0.5 N(1,1)": mixture([(0.5, normal(-1, 1)), (0.5, normal(1, 1))]),
}

points = np.array([-2.0, 0.0, 2.0])
print(f"{'distribution':36s} {'cdf(-2,0,2)':28s} {'pdf(0)':10s} {'pdf_prime(0)':12s}")
for name, d in catalog.items():
    cdf = ", ".join(f"{v:.4f}" for v in d.cdf(points))
    print(f"{name:36s} [{cdf}]  {d.pdf(0.0):.6f}  {d.pdf_prime(0.0):+.6f}")

print("\nextended-real endpoints: cdf(-inf) =", catalog["normal(0, 1)"].cdf(float("-inf")),
      " cdf(+inf) =", catalog["normal(0, 1)"].cdf(float("inf")))

# the pdf is floored at 1e-300 so likelihood ratios never divide by zero,
# while log_pdf stays exact far beyond the underflow point
g = catalog["gumbel(0, 0.75)"]
print(f"gumbel pdf(-12) = {g.pdf(-12.0):g} (floored), log_pdf(-12) = {g.log_pdf(-12.0):.4g} (exact)")
