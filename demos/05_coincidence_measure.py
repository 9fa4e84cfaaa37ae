"""Measuring the coincidence set across a cost family.

Across a parameter box of cost distributions, how much of the box makes
compliance-maximization and accuracy-maximization agree?  The coincidence
condition F(p | x) = 1/2 at the prevalence pivot p = r * gap(0) is one
scalar equation, so for families transversal at p (dF(p | x)/dx != 0,
what ``certify`` calls responsive) the answer should be a measure-zero
slice: the fraction of sampled parameters within tolerance tau of
coincidence shrinks like tau (log-log slope ~1).  Two control families
parked on the coincidence set show the transversality hypothesis doing
the work: one whose members ignore the parameter, and README's
counterexample, whose members all differ but whose basis CDFs all equal
1/2 at p.  Writes runs/demo_sweep/.
"""

from threshold_lab import (
    ParameterBox,
    SweepSpec,
    coincidence_fraction,
    location_family,
    logistic,
    mixture_linear_family,
    normal,
    normalize_pair,
    scaling_report,
)
from threshold_lab.output import sweep_summary, write_json, write_sweep_csv, write_xy

pair = normalize_pair(normal(-1, 1), normal(1, 1))
pivot = 1.0 * pair.gap(0.0)  # r * gap(0) at reward r = 1

print("--- logistic location family, cost location mu in [-3, 3] ---")
family = location_family(logistic(0, 1), ParameterBox((-3.0,), (3.0,)))
spec = SweepSpec(family=family, pair=pair, reward=1.0, n_samples=10000,
                 tolerances=(0.1, 0.01, 0.001), seed=20250810, mode="foc_gap")
result = coincidence_fraction(spec)  # certifies the family at the sweep's own pivot
print(f"certificate: {result.certificate.summary()}")
report = scaling_report(result)
for tol, frac in zip(result.tolerances, result.fractions):
    print(f"  |slope gap| < {tol:<6g}: fraction {frac:.4f}")
print(f"log-log slope {result.scaling_slope:.3f} "
      f"(bootstrap [{report.slope_lo:.3f}, {report.slope_hi:.3f}]) -> {report.verdict}")

write_sweep_csv("runs/demo_sweep/samples.csv", result)
write_json("runs/demo_sweep/summary.json", sweep_summary(result, report))
write_xy("runs/demo_sweep/fractions.dat", result.tolerances, result.fractions,
         labels=("tolerance", "fraction"))

print("\n--- two-parameter mixture family: same story in 2-d ---")
family2 = mixture_linear_family(
    (normal(-2, 0.8), normal(2, 0.8), logistic(0, 1)),
    ParameterBox((0.1, 0.1), (0.45, 0.45)),
)
spec2 = SweepSpec(family=family2, pair=pair, reward=1.0, n_samples=10000,
                  tolerances=(0.03, 0.01, 0.003, 0.001, 0.0003), seed=20250810)
result2 = coincidence_fraction(spec2)
print(f"fractions {tuple(round(f, 4) for f in result2.fractions)}; "
      f"slope {result2.scaling_slope:.3f} (a curve in a 2-d box still has measure zero)")

pinned = logistic(pivot, 1.0)  # cost CDF = 1/2 at the prevalence pivot
controls = (
    ("family whose members ignore the parameter", (pinned, pinned)),
    ("README's counterexample: distinct members, each CDF = 1/2 at the pivot",
     (normal(pivot, 1.0), logistic(pivot, 0.4))),
)
for title, basis in controls:
    print(f"\n--- control: {title} ---")
    control = mixture_linear_family(basis, ParameterBox((0.2,), (0.8,)))
    cresult = coincidence_fraction(
        SweepSpec(family=control, pair=pair, reward=1.0, n_samples=2000,
                  tolerances=(0.1, 0.01, 0.001), seed=7)
    )
    creport = scaling_report(cresult)
    print(f"responsive: {cresult.certificate.responsive_ok}; fractions {cresult.fractions} -> {creport.verdict}")
print("every sample coincides: without transversality at the pivot nothing forces the set to be thin")
