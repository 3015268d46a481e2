"""Experiment drivers: variation limits, completeness and divergence probes,
comparison certificates, and gradient tail fits.

Each driver returns an ExperimentReport whose verdict is one of ``confirms``,
``refutes`` or ``inconclusive``; a refute is a successful, decisive
measurement in the negative direction, never an error.  The domain reading
of the verdict (complete/incomplete, divergent/convergent) is carried
separately as ``finding``.  Every check that enters a verdict is one
``check`` row under ``evidence.checks``, and ``decide`` is the only rule
that turns rows into a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals
from .errors import InvalidArgumentError, RangeError
from .geometry import (RadialBVDatum, RadialManifold, ball_indicator,
                       constant_one, euclidean, exact_total_variation,
                       power_exp_weight)
from .grid import build_grid
from .operator import DIRICHLET, assemble
from .solver import (SolveControls, advance_states, as_real, evolve,
                     exhaustion_levels, overflow_safe_radius)

VERDICTS = ("confirms", "refutes", "inconclusive")

# degiorgi: a stop's exhaustion has converged once each entry of its (pole
# value, mass, total variation) triple moved by at most this fraction
EXHAUSTION_RTOL = 1e-6
# blowup: a TV tail whose last step moved by at most this fraction is stable
STABILIZE_RTOL = 1e-3
# comparison: how far v may exceed the barrier integral w at any node
VW_TOL = 1e-6


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: verdict, evidence rows, fitted constants."""

    series: dict
    fitted: dict
    verdict: str
    finding: str
    evidence: dict


def check(name: str, measured, relation: str, bound,
          gate: str = "confirms") -> dict:
    """One verdict row: whether ``measured relation bound`` holds, and which
    verdict it gates (``confirms``, ``refutes`` or ``both``)."""
    holds = {"<=": measured <= bound, "<": measured < bound,
             ">=": measured >= bound, ">": measured > bound}[relation]
    return {"property": name, "measured": float(measured),
            "relation": relation, "tolerance": float(bound), "gate": gate,
            "status": "pass" if holds else "fail"}


def decide(checks, findings) -> tuple[str, str]:
    """The one verdict rule: ``confirms`` when every row gated ``confirms``
    or ``both`` passes, else ``refutes`` when every row gated ``refutes`` or
    ``both`` passes, else ``inconclusive``; with its entry of ``findings``."""
    for verdict, finding in zip(VERDICTS, findings):
        if verdict == "inconclusive" or all(
                row["status"] == "pass" for row in checks
                if row["gate"] in (verdict, "both")):
            return verdict, finding


def _require_decreasing(values, name: str):
    vals = [as_real(v) for v in values]
    if not vals or any(v <= 0 or not math.isfinite(v) for v in vals):
        raise InvalidArgumentError(f"{name} must hold positive finite times")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise InvalidArgumentError(f"{name} must be strictly decreasing")
    return vals


def degiorgi_sweep(manifold: RadialManifold, datum: RadialBVDatum, t_list,
                   controls: SolveControls,
                   gap_rtol: float = 0.01) -> ExperimentReport:
    """Small-time variation limit versus the exact total variation.

    One exhaustion walk runs through every time of ``t_list`` and records
    the total variation at each on its last level.  A stop has converged
    when its (pole value, mass, total variation) triple moved by at most
    ``EXHAUSTION_RTOL`` relative (at least absolute) since the level before;
    under the automatic radius policy the walk stops once every stop has
    converged.  The decreasing-t series is accelerated by iterated Aitken
    and the extrapolated limit compared against the closed-form variation
    of the datum; confirmation requires the relative gap to stay within
    ``gap_rtol``.  A low-confidence extrapolation never confirms, and fewer
    than 3 times leave the run inconclusive without a fit.
    """
    if not math.isfinite(datum.support_radius):
        raise InvalidArgumentError("datum must be compactly supported")
    if not gap_rtol > 0:
        raise InvalidArgumentError(f"gap_rtol must be positive, got {gap_rtol}")
    ts = _require_decreasing(t_list, "t_list")
    exact = exact_total_variation(datum, manifold)

    triples, converged = [None] * len(ts), [False] * len(ts)
    walk = exhaustion_levels(manifold, datum, ts[::-1], controls)
    for levels, (used, states) in enumerate(walk, start=1):
        for k, values in enumerate(states):
            new = (float(values[0]), functionals.weighted_sum(used, values),
                   functionals.total_variation(values, used, manifold))
            # <= keeps a NaN unconverged
            converged[k] = triples[k] is not None and all(
                abs(a - b) <= EXHAUSTION_RTOL * max(1.0, abs(a))
                for a, b in zip(new, triples[k]))
            triples[k] = new
        if controls.exhaustion is None and all(converged):
            break
    tvs = [tv for _, _, tv in triples[::-1]]
    unconverged = converged.count(False) if levels >= 2 else 0
    rows = [{"t": t, "R_used": used.R, "N": used.N, "TV": tv}
            for t, tv in zip(ts, tvs)]
    points = list(zip(ts, tvs))

    checks = [check("extrapolation_points", len(points), ">=", 3, "both")]
    fitted = {"exact_tv": exact, "extrapolated_limit": math.nan,
              "relative_gap": math.nan, "error_indicator": math.nan}
    gap_rows = []  # the fit and the rows that read it need 3 times
    if checks[0]["status"] == "pass":
        ext = functionals.extrapolate_limit(points)
        gap = abs(ext.limit - exact) / max(exact, 1e-8)
        fitted.update({"extrapolated_limit": ext.limit, "relative_gap": gap,
                       "error_indicator": ext.error_indicator})
        checks.append(check("extrapolation_low_confidence",
                            ext.low_confidence, "<=", 0, "both"))
        gap_rows = [check("relative_gap", gap, "<=", gap_rtol)]
    checks += [check("unconverged_exhaustion_stops", unconverged, "<=", 0,
                     "both"), *gap_rows]
    verdict, finding = decide(checks, (
        "variation limit matches exact value",
        "variation limit misses exact value",
        "limit not trusted" if gap_rows else "fewer than 3 times"))
    return ExperimentReport(
        series={"degiorgi": tuple(rows)}, fitted=fitted, verdict=verdict,
        finding=finding, evidence={"checks": checks})


def completeness_probe(manifold: RadialManifold, t: float,
                       controls: SolveControls,
                       eps_c: float = 1e-4) -> ExperimentReport:
    """Mass at the pole under exhaustion: conservative or mass-leaking.

    Walks ``exhaustion_levels`` of the constant profile (its radius plan and
    monotonicity check), records the pole value per radius as row ``R``, and
    Aitken-extrapolates the sequence in 1/R.  Under the automatic radius
    policy the walk stops after the first level k >= 3 whose pole value lies
    within eps_c/100 of 1 and moved by at most eps_c/100 over each of the
    last two levels: exhaustion is monotone and the maximum principle caps
    every value at 1, so later levels cannot move the limit.  Explicit radii
    are walked in full.  The model reads complete when the limit stays
    within ``eps_c`` of 1 and incomplete when it sits below 1 - 10*eps_c
    with a stable exhaustion tail; anything in between, any low-confidence
    extrapolation and a walk of fewer than 3 levels (no fit) is inconclusive.
    """
    if not 0 < eps_c < 0.1:  # else the band below 1 - 10*eps_c is empty
        raise InvalidArgumentError(f"eps_c must lie in (0, 0.1), got {eps_c}")
    settled = eps_c / 100.0
    rows = []
    for g, (values,) in exhaustion_levels(manifold, constant_one(), [t], controls):
        rows.append({"R": g.R, "m_at_0": float(values[0])})
        m = [row["m_at_0"] for row in rows[-3:]]
        if controls.exhaustion is None and len(m) == 3 and max(
                abs(1.0 - m[2]), abs(m[2] - m[1]), abs(m[1] - m[0])) <= settled:
            break

    checks = [check("exhaustion_levels", len(rows), ">=", 3, "both")]
    undetermined = "undetermined"
    if checks[0]["status"] == "fail":
        undetermined = "fewer than 3 exhaustion levels"
        fitted = {"m_limit": rows[-1]["m_at_0"], "last_delta": math.nan}
    else:
        points = [(1.0 / row["R"], row["m_at_0"]) for row in rows]
        ext = functionals.extrapolate_limit(points)
        last_delta = abs(rows[-1]["m_at_0"] - rows[-2]["m_at_0"])
        fitted = {"m_limit": ext.limit, "last_delta": last_delta,
                  "error_indicator": ext.error_indicator}
        checks += [check("extrapolation_low_confidence", ext.low_confidence,
                         "<=", 0, "both"),
                   check("m_limit", ext.limit, ">=", 1.0 - eps_c),
                   check("m_limit", ext.limit, "<=", 1.0 - 10.0 * eps_c,
                         "refutes"),
                   check("last_delta", last_delta, "<=", eps_c, "refutes")]
    verdict, finding = decide(checks,
                              ("complete", "incomplete", undetermined))
    return ExperimentReport(
        series={"completeness": tuple(rows)}, fitted=fitted, verdict=verdict,
        finding=finding, evidence={"checks": checks})


def _blowup_at(manifold: RadialManifold, g, state: np.ndarray, t: float,
               r_used: list, noise_floor_q: float) -> tuple[tuple, dict, list]:
    """(rows, fitted, checks) at one time from the evolved [constant, ball]."""
    comp = state[:, 0] - state[:, 1]
    terms = functionals.face_variation_terms(comp, g, manifold)

    flux_comp = functionals.flux_profile(comp, g)
    flux_mass = functionals.flux_profile(state[:, 0], g)

    tv_values = []
    for snapped in r_used:
        tv = math.fsum(terms[g.faces[1:-1] <= snapped + 1e-12])
        if not math.isfinite(tv):
            raise RangeError(f"TV_R overflows at R={snapped:.6g}; reduce R_max")
        tv_values.append(tv)

    r_max = r_used[-1]
    in_window = flux_mass.radii <= r_max + 1e-12
    q_mono_defect = float(np.min(np.diff(flux_mass.q[in_window])))
    q_at_rmax = flux_comp.at(r_max)

    q_thr = max(10.0 * noise_floor_q, 1e-12)
    r_t, delta_t = flux_comp.crossing(q_thr)

    xbar = float(np.mean(r_used))
    slope = (math.fsum((x - xbar) * y for x, y in zip(r_used, tv_values))
             / math.fsum((x - xbar) ** 2 for x in r_used))
    # confirms reads divergent, refutes convergent
    checks = [
        check("least_tv_increment", min(b - a for a, b in
                                        zip(tv_values, tv_values[1:])), ">", 0),
        check("slope", slope, ">=",
              0.05 * tv_values[-1] / (r_used[-1] - r_used[0])),
        check("mass_flux_defect", q_mono_defect, ">=", -1e-8),
        check("q_at_Rmax", q_at_rmax, ">=", q_thr),
        check("last_tv_step", abs(tv_values[-1] - tv_values[-2]), "<=",
              STABILIZE_RTOL * max(tv_values[-1], 1e-30), "refutes"),
        check("q_at_Rmax", q_at_rmax, "<", q_thr, "refutes")]

    rows = tuple({"R": r, "TV_R": tv, "q_at_Rmax": flux_comp.at(r)}
                 for r, tv in zip(r_used, tv_values))
    fitted = {"t": t, "slope": slope, "q_at_Rmax": q_at_rmax,
              "noise_floor_q": noise_floor_q,
              "r_t": r_t, "delta_t": delta_t}
    return rows, fitted, checks


def blowup_sweep(manifold: RadialManifold, r0: float, t_list, R_list,
                 controls: SolveControls) -> ExperimentReport:
    """Truncated variation growth of a ball's complement over a time ladder.

    One trajectory of [constant, ball] runs through every time in ``t_list``
    on the ball ``solver.evolve`` walls off past max(R_list), with
    ``n_cells`` cells inside min(R_list) and its notes under
    ``fitted.notes``; the complement state follows by linearity, and its
    variation is accumulated up to each requested radius.  Divergence at
    a time requires all of: strictly increasing TV_R, least-squares slope at
    or above the slope threshold (0.05 * TV at the largest radius over the
    R_list span), mass-function flux nondecreasing within 1e-8, and
    complement flux at the largest radius at or above the q threshold.  The
    q threshold is 10x the flux a matched flat-space trajectory (whose wall
    is never capped) leaves at the same radius (its noise floor); on flat
    space the run is its own floor.  Convergence requires instead that the
    last TV step stays within ``STABILIZE_RTOL`` of the last TV and the flux
    at the largest radius below the q threshold.

    Each time's finding is ``decide`` over its own checks and the sweep's
    verdict ``decide`` over the checks of every time, so it confirms when
    every time is divergent, refutes when every time is convergent, and is
    otherwise inconclusive.  Time i's checks are ``evidence.checks[i]``, its
    constants ``fitted.per_t[i]`` and its rows series ``blowup_t<i>``;
    ``fitted`` also holds the solve radius and a summary that, when every
    time is convergent and at least three were measured, carries the Aitken
    limit of TV at the largest radius.
    """
    ts = _require_decreasing(t_list, "t_list")
    if not 0 < as_real(r0) < math.inf:
        raise InvalidArgumentError(f"ball radius must be positive, got {r0}")
    radii = [as_real(r) for r in R_list]
    # a NaN (no real radius) fails b > a with either neighbour
    if len(radii) < 2 or any(not b > a for a, b in zip(radii, radii[1:])):
        raise InvalidArgumentError("R_list must contain >= 2 strictly increasing radii")
    if radii[0] <= r0:
        raise InvalidArgumentError(f"truncation radii must exceed r0={r0}")
    safe = overflow_safe_radius(manifold)
    if radii[-1] > safe:
        raise RangeError(
            f"R_max={radii[-1]:.6g} exceeds the overflow-safe radius "
            f"{safe:.6g}; reduce R_max")
    data, stops = (constant_one(), ball_indicator(r0)), ts[::-1]
    g, states, notes = evolve(manifold, data, radii[-1], stops, controls,
                              R_cells=radii[0])
    r_used = [float(g.faces[int(np.argmin(np.abs(g.faces - r)))])
              for r in radii]
    gf, flat_states = g, states
    if manifold.family != "euclidean":
        gf, flat_states, _ = evolve(euclidean(manifold.dimension), data,
                                    radii[-1], stops, controls,
                                    R_cells=radii[0])
    floors = [abs(functionals.flux_profile(s[:, 0] - s[:, 1], gf)
                  .at(r_used[-1])) for s in flat_states]
    rows, fitted, checks = zip(*(
        _blowup_at(manifold, g, state, t, r_used, floor)
        for t, state, floor in zip(ts, states[::-1], floors[::-1])))

    findings = [decide(c, ("divergent", "convergent", "undetermined"))[1]
                for c in checks]
    verdict, finding = decide([row for c in checks for row in c],
                              ("divergent", "convergent", "mixed"))

    summary = {}
    if finding == "convergent" and len(ts) >= 3:
        points = [(t, r[-1]["TV_R"]) for t, r in zip(ts, rows)]
        ext = functionals.extrapolate_limit(points)
        summary.update({"tv_small_time_limit": ext.limit,
                        "error_indicator": ext.error_indicator,
                        "low_confidence": ext.low_confidence})
    return ExperimentReport(
        series={f"blowup_t{i}": r for i, r in enumerate(rows)},
        fitted={"per_t": list(fitted), "summary": summary, "notes": notes,
                "R_solve": g.R},
        verdict=verdict, finding=finding,
        evidence={"findings": list(findings), "checks": list(checks)})


def comparison_check(t: float, R: float,
                     controls: SolveControls) -> ExperimentReport:
    """Certificate run on the fast-growth model: barrier domination.

    Evolves the constant profile on the truncated ball, accumulating its
    time integral v by trapezoid rule along the accepted steps, and checks
    three node-wise statements: v stays below the barrier integral w (within
    ``VW_TOL``), the barrier's weighted Laplacian stays below -1, and
    t * u(t) stays below v.  The barrier w(r), the integral of
    (1 - exp(-s^4))/s^3 from r to R, and its Laplacian are both evaluated in
    closed form.
    """
    manifold = power_exp_weight(4, 1, 3)
    if not 0 < as_real(t) <= 1:
        raise InvalidArgumentError(f"comparison time must lie in (0, 1], got {t}")
    if not 0 < as_real(R) < math.inf:
        raise InvalidArgumentError(f"truncation radius must be positive, got {R}")

    g = build_grid(manifold, R, controls.n_cells)
    op = assemble(g, manifold, DIRICHLET)
    u0 = np.ones(g.N)
    v = np.zeros(g.N)

    def accumulate(t0, a, t1, b):
        v[:] += (t1 - t0) * 0.5 * (a + b)

    (u_final,) = advance_states(op, u0, [t], controls, observer=accumulate)

    # F(s) = (sqrt(pi) erf(s^2) - (1 - exp(-s^4))/s^2) / 2 is an
    # antiderivative of the integrand; w = F(R) - F(r) is taken term by term
    # with erfc, so no difference of two values near sqrt(pi)/2 is formed
    def terms(s):
        return math.sqrt(math.pi) * math.erfc(s ** 2), -math.expm1(-s ** 4) / s ** 2

    erfc_R, e_R = terms(g.R)
    w = np.array([0.5 * ((erfc_r - erfc_R) + (e_r - e_R))
                  for erfc_r, e_r in map(terms, g.centers.tolist())])

    r4 = g.centers ** 4
    lap_w = -4.0 + (-np.expm1(-r4)) / r4

    excess_vw = v - w
    excess_tu = t * u_final - v
    checks = [check("max_v_minus_w", np.max(excess_vw), "<=", VW_TOL),
              check("max_lap_w", np.max(lap_w), "<", -1.0),
              check("max_t_u_minus_v", np.max(excess_tu), "<=", 1e-9)]
    verdict, finding = decide(checks, ("barrier dominates", "barrier violated",
                                       "undetermined"))

    rows = tuple({"r": float(r), "v_R": float(vv), "w_R": float(ww),
                  "lap_w": float(lw)}
                 for r, vv, ww, lw in zip(g.centers, v, w, lap_w))
    fitted = {"lap_w_at_1": -4.0 + (-math.expm1(-1.0)),
              "lap_w_near_zero": float(-4.0 + (-math.expm1(-1e-12)) / 1e-12),
              "lap_w_far": float(-4.0 + (-math.expm1(-50.0 ** 4)) / 50.0 ** 4)}
    return ExperimentReport(
        series={"comparison": rows}, fitted=fitted, verdict=verdict,
        finding=finding, evidence={"checks": checks, "worst_nodes": {
            "v_minus_w_at": float(g.centers[int(np.argmax(excess_vw))]),
            "t_u_minus_v_at": float(g.centers[int(np.argmax(excess_tu))])}})


def tail_probe(manifold: RadialManifold, datum: RadialBVDatum, R_out: float,
               t_list, controls: SolveControls) -> ExperimentReport:
    """Fit of the variation mass beyond a fixed radius against 1/t.

    One trajectory runs through every time on the ball ``solver.evolve``
    walls off past R_out (``n_cells`` cells in all; an R_out at or beyond
    the overflow-safe radius is a RangeError), and the variation over faces
    beyond R_out is recorded at each time.  Only the
    maximal small-t run of strictly decreasing tails enters the fit (earlier
    times are pre-asymptotic); underflowed tails are dropped with a note.
    The fit is log(tail) = log(C) - c/t by least squares; confirmation
    requires a negative slope in 1/t with R^2 >= 0.95, and fewer than 3
    admissible points leave the run inconclusive without a fit.
    """
    support = datum.support_radius
    if not math.isfinite(support):
        raise InvalidArgumentError("datum must be compactly supported")
    if not 2.0 * support <= as_real(R_out) < math.inf:
        raise InvalidArgumentError(
            f"datum support {support} must fit inside half of R_out={R_out}")
    ts = _require_decreasing(t_list, "t_list")
    safe = overflow_safe_radius(manifold)
    if R_out >= safe:
        raise RangeError(
            f"R_out={R_out:.6g} reaches the overflow-safe radius {safe:.6g}; "
            f"reduce R_out")

    g, states, notes = evolve(manifold, (datum,), R_out, ts[::-1], controls)
    rows = []
    for t, state in zip(ts, reversed(states)):
        terms = functionals.face_variation_terms(state[:, 0], g, manifold)
        tail = math.fsum(terms[g.faces[1:-1] > R_out])
        rows.append({"t": t, "tail": tail, "fit_residual": None})

    usable = [i for i, row in enumerate(rows) if row["tail"] > 1e-300]
    for i, row in enumerate(rows):
        if i not in usable:
            notes.append(f"tail underflowed at t={row['t']}")
    # keep the maximal small-t suffix on which the tail strictly decreases
    admissible: list[int] = []
    for i in reversed(usable):
        if not admissible or rows[i]["tail"] > rows[admissible[0]]["tail"]:
            admissible.insert(0, i)
        else:
            break
    excluded = [i for i in usable if i not in admissible]
    for i in excluded:
        notes.append(f"pre-asymptotic point excluded at t={rows[i]['t']}")

    fitted = {"n_points": len(admissible), "notes": notes}
    checks = [check("admissible_tail_points", len(admissible), ">=", 3,
                    "both")]
    undetermined = "fit quality below threshold"
    if checks[0]["status"] == "fail":
        undetermined = "too few usable tail points"
        fitted.update({"C": math.nan, "c": math.nan, "r_squared": math.nan})
    else:
        x = np.array([1.0 / rows[i]["t"] for i in admissible])
        y = np.array([math.log(rows[i]["tail"]) for i in admissible])
        xbar, ybar = float(np.mean(x)), float(np.mean(y))
        sxx = float(np.sum((x - xbar) ** 2))
        slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
        intercept = ybar - slope * xbar
        residuals = y - (intercept + slope * x)
        ss_res = float(np.sum(residuals ** 2))
        ss_tot = float(np.sum((y - ybar) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        for i, resid in zip(admissible, residuals):
            rows[i]["fit_residual"] = float(resid)
        fitted.update({"C": math.exp(intercept), "c": -slope,
                       "r_squared": r_squared, "slope": slope})
        checks += [check("slope", slope, "<", 0),
                   check("r_squared", r_squared, ">=", 0.95),
                   check("slope", slope, ">=", 0, "refutes")]
    verdict, finding = decide(checks, (
        "tail decays exponentially in 1/t", "tail does not decay in 1/t",
        undetermined))
    return ExperimentReport(
        series={"tail": tuple(rows)}, fitted=fitted, verdict=verdict,
        finding=finding, evidence={"checks": checks})
