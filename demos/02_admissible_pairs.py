"""Validating and normalizing signal pairs.

A signal pair (g0 under non-compliance, g1 under compliance) is admissible
when the likelihood ratio pdf1/pdf0 is strictly increasing and the two
densities cross exactly once.  Admissible pairs get translated so the
crossing sits at t = 0; every downstream formula assumes that.
"""

from threshold_lab import (
    AdmissibilityError,
    check_admissible,
    find_crossing,
    gumbel,
    logistic,
    normal,
    normalize_pair,
)

print("--- a clean location pair: N(0,1) vs N(2,1) ---")
report = check_admissible(normal(0, 1), normal(2, 1))
print(f"monotone ratio: {report.mlrp_ok} (min slope {report.min_ratio_slope:.3f}, "
      f"scan grid {report.grid})")
print(f"density crossing at t* = {find_crossing(normal(0, 1), normal(2, 1)):.6f}")

pair = normalize_pair(normal(0, 1), normal(2, 1))
print(f"normalized: g0 = normal{pair.g0.params}, g1 = normal{pair.g1.params}, "
      f"recorded shift = {pair.shift:.6f}")
print(f"signal gap cdf0-cdf1 at 0: {pair.gap(0.0):.6f} (its maximum)")
far = normalize_pair(normal(100, 1), normal(102, 1))
print(f"the same pair moved by 100: g0 = normal{far.g0.params}, shift = {far.shift:.6f} "
      "(the scan window follows the pair)")

print("\n--- pairs that fail the gate ---")
for label, g0, g1 in [
    ("equal-mean unequal-variance normals", normal(0, 1), normal(0, 2)),
    ("identical logistics", logistic(0, 1), logistic(0, 1)),
]:
    try:
        normalize_pair(g0, g1)
    except AdmissibilityError as err:
        print(f"{label}: rejected ({err})")

print("\n--- the admissibility scan on a gumbel pair ---")
report = check_admissible(gumbel(0, 1), gumbel(1, 1))
print(f"admissible: {report.admissible} "
      f"(mlrp {report.mlrp_ok}, crossings {report.crossing_count}, support {report.support_ok}; "
      "smooth by construction, as every catalog member is)")
