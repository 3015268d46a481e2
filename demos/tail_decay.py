"""How fast does smoothing stop mattering far from the data?

Evolve the unit-ball indicator and sum the variation terms beyond twice the
support radius.  On well-behaved models this tail is not just small, it dies
like exp(-c / t): halving t squares the suppression.  The demonstration fits
log(tail) against 1/t and prints the fitted rate alongside the regression
quality.

Run:  python3 demos/tail_decay.py
"""

from heatlab import SolveControls, ball_indicator, euclidean, power_exp_weight
from heatlab.experiments import tail_probe


def show(manifold, label):
    controls = SolveControls(n_cells=512, step_tol=1e-6)
    report = tail_probe(manifold, ball_indicator(1.0), 2.0,
                        (0.05, 0.04, 0.03, 0.02, 0.01), controls)
    print(f"\n{label}")
    print(f"  {'t':>7s}  {'tail variation':>16s}  {'fit residual':>13s}")
    for row in report.series["tail"]:
        resid = "excluded" if row["fit_residual"] is None else f"{row['fit_residual']:+.3e}"
        print(f"  {row['t']:7.3f}  {row['tail']:16.6e}  {resid:>13s}")
    print(f"  fitted decay rate c : {report.fitted['c']:.4f}  (tail ~ C exp(-c/t))")
    r_squared = next(row["measured"] for row in report.evidence["checks"]
                     if row["property"] == "r_squared")
    print(f"  regression R^2      : {r_squared:.6f}")
    print(f"  verdict             : {report.verdict}")


def main():
    print("Variation mass beyond r = 2 for a unit-ball datum, shrinking t.")
    show(euclidean(3), "flat 3-space")
    show(power_exp_weight(2, -1, 3), "Gaussian weight exp(-r^2)")


if __name__ == "__main__":
    main()
