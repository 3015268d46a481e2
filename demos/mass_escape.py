"""Watch probability mass escape to infinity under a superexponential weight.

The heat evolution of the constant 1, read at the origin, answers a yes/no
question about the geometry: if the value stays at 1 for all truncation
radii, no mass leaks through infinity (the model is conservative); if it
stabilizes strictly below 1, the diffusion explodes in finite time.

Flat space keeps the value pinned at 1.  The exp(+r^4) weighted model packs
so much measure far out that the truncated values settle near 0.998 and stop
moving: the missing 0.002 has left through the end of the line.

Run:  python3 demos/mass_escape.py
"""

from heatlab import SolveControls, euclidean, power_exp_weight
from heatlab.experiments import completeness_probe


def show(manifold, label):
    controls = SolveControls(n_cells=1024, step_tol=1e-6)
    report = completeness_probe(manifold, 0.1, controls)
    print(f"\n{label}")
    print(f"  {'R':>8s}  {'value at origin':>16s}")
    for row in report.series["completeness"]:
        print(f"  {row['R']:8.3f}  {row['m_at_0']:16.12f}")
    limit = next(row["measured"] for row in report.evidence["checks"]
                 if row["property"] == "m_limit")
    print(f"  extrapolated limit : {limit:.12f}")
    print(f"  finding            : {report.finding}")


def main():
    print("Heat evolution of the constant 1 at time t=0.1, origin value by")
    print("increasing truncation radius.")
    show(euclidean(3), "flat 3-space")
    show(power_exp_weight(4, 1, 3), "weighted by exp(+r^4)")
    print("\nThe weighted model is stochastically incomplete: Brownian motion")
    print("driven by this geometry reaches infinity in finite time.")


if __name__ == "__main__":
    main()
