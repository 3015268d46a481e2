"""Recover a ball's perimeter from heat flow alone.

Evolve the indicator of the unit ball for a short time t, measure the
weighted variation of the smoothed profile, and shrink t.  The variation
climbs toward the exact perimeter of the ball.  Its deficit is linear in t
to leading order, and exactly so on flat 3-space, where the variation is
4*pi*(1 - 2t); extrapolating the ladder in t removes it and lands on the
perimeter to many digits.

Run:  python3 demos/variation_limit.py
"""

import math

from heatlab import SolveControls, ball_indicator, euclidean, power_exp_weight
from heatlab.experiments import degiorgi_sweep


def show(manifold, exact, label):
    controls = SolveControls(n_cells=1024, step_tol=1e-6)
    report = degiorgi_sweep(manifold, ball_indicator(1.0),
                            (0.02, 0.01, 0.005, 0.0025), controls, radii=(4.0,))
    print(f"\n{label}")
    print(f"  {'t':>8s}  {'variation':>14s}")
    for row in report.series["degiorgi"]:
        print(f"  {row['t']:8.4f}  {row['TV']:14.8f}")
    limit = report.fitted["extrapolated_limit"]
    print(f"  extrapolated t->0 limit : {limit:.10f}")
    print(f"  exact perimeter         : {exact:.10f}")
    gap = next(row["measured"] for row in report.evidence["checks"]
               if row["property"] == "relative_gap")
    print(f"  relative gap            : {gap:.2e}")
    print(f"  verdict                 : {report.verdict}")


def main():
    print("Perimeter from vanishing-time heat flow, unit ball datum.")
    show(euclidean(3), 4 * math.pi, "flat 3-space (target 4*pi)")
    show(power_exp_weight(2, -1, 3), 4 * math.pi * math.exp(-1.0),
         "Gaussian weight exp(-r^2) (target 4*pi/e)")


if __name__ == "__main__":
    main()
