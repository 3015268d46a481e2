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

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import functionals, solver
from .errors import InvalidArgumentError, RangeError
from .geometry import (RadialBVDatum, RadialManifold, as_real, ball_indicator,
                       constant_one, euclidean, exact_total_variation, instance,
                       monotone_reals, positive_real, power_exp_weight)
from .grid import build_grid, face_ladder, nearest_faces
from .operator import DIRICHLET, assemble
from .solver import SolveControls, exhaustion_levels

VERDICTS = ("confirms", "refutes", "inconclusive")

# completeness: a pole mass limit within this of 1 reads complete, one below
# 1 - 10 * EPS_C with a last step within it incomplete
EPS_C = 1e-4
# degiorgi: a stop's exhaustion has converged once each entry of its (pole
# value, mass, total variation) triple moved by at most this fraction
EXHAUSTION_RTOL = 1e-6
# blowup: a TV tail whose last step moved by at most this fraction is stable
STABILIZE_RTOL = 1e-3
# comparison: how far the discrete exit time, the limit of the time
# integral v(t) of P_t 1, may exceed the barrier w at any node
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


def degiorgi_sweep(manifold: RadialManifold, datum: RadialBVDatum, t_list,
                   controls: SolveControls, gap_rtol: float = 0.01,
                   radii=None) -> ExperimentReport:
    """Small-time variation limit versus the exact total variation.

    One exhaustion walk over ``radii`` (None: the automatic policy) runs
    through every time of ``t_list`` and records the total variation at
    each on its last level.  A stop has converged when its (pole value,
    mass, total variation) triple moved by at most
    ``EXHAUSTION_RTOL`` relative (at least absolute) since the level before;
    under the automatic radius policy the walk stops once every stop has
    converged.  The decreasing-t series is accelerated by iterated Aitken
    and the extrapolated limit compared against the closed-form variation
    of the datum; confirmation requires the relative gap to stay within
    ``gap_rtol``.  A low-confidence extrapolation never confirms, and fewer
    than 3 times leave the run inconclusive without a fit.  The count of stops
    not converged is a row only on a walk of two or more levels.
    """
    if not math.isfinite(instance(datum, RadialBVDatum).support_radius):
        raise InvalidArgumentError("datum must be compactly supported")
    gap_rtol = positive_real(gap_rtol, "gap_rtol")
    ts = monotone_reals(t_list, "t_list times", "decreasing")
    exact = exact_total_variation(datum, manifold)

    triples, converged = [None] * len(ts), [False] * len(ts)
    with contextlib.closing(exhaustion_levels(manifold, datum, ts[::-1], controls, radii)) as walk:
        for levels, (used, states) in enumerate(walk, start=1):
            for k, values in enumerate(states):
                new = (float(values[0]), functionals.weighted_sum(used, values),
                       functionals.total_variation(values, used, manifold))
                # <= keeps a NaN unconverged
                converged[k] = triples[k] is not None and all(
                    abs(a - b) <= EXHAUSTION_RTOL * max(1.0, abs(a))
                    for a, b in zip(new, triples[k]))
                triples[k] = new
            if radii is None and all(converged):
                break
    tvs = [tv for _, _, tv in triples[::-1]]
    points = list(zip(ts, tvs))

    checks = [check("extrapolation_points", len(points), ">=", 3, "both")]
    # every row is read on the last level, so its radius and cells are one
    fitted = {"exact_tv": exact, "extrapolated_limit": math.nan,
              "error_indicator": math.nan, "R_used": used.R, "N": used.N}
    gap_rows = []  # the fit and the rows that read it need 3 times
    if checks[0]["status"] == "pass":
        ext = functionals.extrapolate_limit(points)
        gap = abs(ext.limit - exact) / max(exact, 1e-8)
        fitted.update({"extrapolated_limit": ext.limit,
                       "error_indicator": ext.error_indicator})
        checks.append(check("extrapolation_low_confidence",
                            ext.low_confidence, "<=", 0, "both"))
        gap_rows = [check("relative_gap", gap, "<=", gap_rtol)]
    if levels >= 2:  # one level has none before it to converge against
        checks.append(check("unconverged_exhaustion_stops", converged.count(False),
                            "<=", 0, "both"))
    checks += gap_rows
    verdict, finding = decide(checks, (
        "variation limit matches exact value",
        "variation limit misses exact value",
        "limit not trusted" if gap_rows else "fewer than 3 times"))
    return ExperimentReport(
        series={"degiorgi": tuple({"t": t, "TV": tv} for t, tv in points)},
        fitted=fitted, verdict=verdict, finding=finding,
        evidence={"checks": checks})


def completeness_probe(manifold: RadialManifold, t: float, controls: SolveControls,
                       radii=None) -> ExperimentReport:
    """Mass at the pole under exhaustion: conservative or mass-leaking.

    Walks ``exhaustion_levels`` of the constant profile over ``radii`` (its
    radius plan and monotonicity check), records the pole value per radius
    as row ``R``, and Aitken-extrapolates the sequence in 1/R.  Under the
    automatic radius policy (``radii=None``) the walk stops after the first
    level k >= 3 whose pole value lies within EPS_C/100 of 1 and moved by at
    most EPS_C/100 over each of the last two levels: exhaustion is monotone
    and the maximum principle caps every value at 1, so later levels cannot
    move the limit.  Explicit radii are walked in full.  The model reads
    complete when the limit stays within ``EPS_C`` of 1 and incomplete when
    it sits below 1 - 10*EPS_C with a stable exhaustion tail; anything in
    between, any low-confidence extrapolation and a walk of fewer than 3
    levels (no fit) is inconclusive.
    """
    settled = EPS_C / 100.0
    rows = []
    with contextlib.closing(exhaustion_levels(manifold, constant_one(), [t],
                                              controls, radii)) as walk:
        for g, (values,) in walk:
            rows.append({"R": g.R, "m_at_0": float(values[0])})
            m = [row["m_at_0"] for row in rows[-3:]]
            if radii is None and len(m) == 3 and max(
                    abs(1.0 - m[2]), abs(m[2] - m[1]), abs(m[1] - m[0])) <= settled:
                break

    checks = [check("exhaustion_levels", len(rows), ">=", 3, "both")]
    undetermined = "undetermined"
    # the limit and its last step live in their rows; with no fit, no row
    fitted = {"error_indicator": math.nan}
    if checks[0]["status"] == "fail":
        undetermined = "fewer than 3 exhaustion levels"
    else:
        points = [(1.0 / row["R"], row["m_at_0"]) for row in rows]
        ext = functionals.extrapolate_limit(points)
        last_delta = abs(rows[-1]["m_at_0"] - rows[-2]["m_at_0"])
        fitted["error_indicator"] = ext.error_indicator
        checks += [check("extrapolation_low_confidence", ext.low_confidence,
                         "<=", 0, "both"),
                   check("m_limit", ext.limit, ">=", 1.0 - EPS_C),
                   check("m_limit", ext.limit, "<=", 1.0 - 10.0 * EPS_C,
                         "refutes"),
                   check("last_delta", last_delta, "<=", EPS_C, "refutes")]
    verdict, finding = decide(checks,
                              ("complete", "incomplete", undetermined))
    return ExperimentReport(
        series={"completeness": tuple(rows)}, fitted=fitted, verdict=verdict,
        finding=finding, evidence={"checks": checks})


def _walled_ball(manifold: RadialManifold, data, R_read: float, stops,
                 controls: SolveControls, R_cells: float | None = None):
    """The one wall rule: checks and lays out a one-level walk of the tuple
    ``data`` through ``stops``, and returns its grid's faces and the call
    that steps it to (grid, states, notes).  The wall sits max(2, 8*sqrt(last
    stop)) past ``R_read``, capped at the overflow-safe radius with a note,
    and ``n_cells`` cells fill ``R_cells`` (default: the wall) at one
    spacing.  Where nothing beyond ``R_read`` could be read, a RangeError
    comes before any step."""
    n, R_read = instance(controls, SolveControls).n_cells, positive_real(R_read, "reading radius")
    safe = solver.overflow_safe_radius(manifold)
    if not R_read < safe:
        raise RangeError(f"reading radius {R_read:.6g} is not below the overflow-safe "
                         f"radius {safe:.6g}; reduce it")
    wanted = R_read + max(2.0, 8.0 * math.sqrt(stops[-1]))
    R = min(wanted, safe)
    n = n if R_cells is None else max(n, int(math.ceil(n * R / R_cells)))
    faces = face_ladder(R, n, sorted({r for d in data for r in d.jump_radii}))
    if faces[-2] <= R_read:
        raise RangeError(f"no interior face lies beyond the reading radius {R_read:.6g} "
                         f"before the wall at {R:.6g}; reduce it or raise n_cells")
    walk = exhaustion_levels(manifold, data, stops, SolveControls(controls.step_tol, n), (R,))
    capped = [f"solve radius capped at {safe:.6g}"] if wanted > safe else []
    return faces, lambda: (*next(walk), capped)


def _blowup_at(manifold: RadialManifold, g, state: np.ndarray, js: list,
               noise_floor_q: float) -> tuple[tuple, dict, list]:
    """(rows, fitted, checks) at one time from the evolved [constant, ball],
    each radius read at its face j of ``js``: TV_R over faces 1..j, the flux
    at face j, and the mass flux over faces 1..j of the largest."""
    comp = state[:, 0] - state[:, 1]
    terms = functionals.face_variation_terms(comp, g, manifold)
    q, q_mass = (functionals.flux_profile(u, g) for u in (comp, state[:, 0]))
    r_used = [float(g.faces[j]) for j in js]
    tv_values = [functionals.finite_fsum(terms[:j], f"TV_R overflows at R={r:.6g}; reduce R_max")
                 for j, r in zip(js, r_used)]
    q_mono_defect = float(np.min(np.diff(q_mass[:js[-1]])))
    q_at_rmax = float(q[js[-1] - 1])

    q_thr = max(10.0 * noise_floor_q, 1e-12)
    r_t, delta_t = next(((float(g.faces[k + 1]), float(q[k])) for k in np.flatnonzero(q > q_thr)),
                        (None, None))  # the first face past q_thr, and its flux

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

    rows = tuple({"R": r, "TV_R": tv, "q_R": float(q[j - 1])}
                 for j, r, tv in zip(js, r_used, tv_values))
    fitted = {"noise_floor_q": noise_floor_q, "r_t": r_t, "delta_t": delta_t}
    return rows, fitted, checks


def blowup_sweep(manifold: RadialManifold, r0: float, t_list, R_list,
                 controls: SolveControls) -> ExperimentReport:
    """Truncated variation growth of a ball's complement over a time ladder.

    [constant, ball] steps as two columns through every time in ``t_list``
    on a one-level exhaustion walk walled off past max(R_list) (the wall
    rule's notes go under ``fitted.notes``), with ``n_cells`` cells inside
    min(R_list); the complement state follows by linearity, and its
    variation is accumulated up to each requested radius, read at its face
    by ``nearest_faces``; two radii on one face, or a first radius on r0's
    face or inside it, are an InvalidArgumentError.  Divergence at a time
    requires all of: strictly increasing TV_R, least-squares slope at or
    above the slope threshold (0.05 * TV at the largest radius over the
    R_list span), mass-function flux nondecreasing within 1e-8, and
    complement flux at the largest radius at or above the q threshold.  The
    q threshold is 10x the flux a matched flat-space trajectory (whose wall
    is never capped; ``solver.both`` runs it in a child) leaves at its face
    nearest the largest radius's, its noise floor; on flat space the run is
    its own floor.  Convergence requires instead that the last TV step
    stays within ``STABILIZE_RTOL`` of the last TV and the flux at R_max
    below the q threshold.

    Each time's finding is ``decide`` over its own checks and the sweep's
    verdict ``decide`` over the checks of every time, so it confirms when
    every time is divergent, refutes when every time is convergent, and is
    otherwise inconclusive.  Time i's checks are ``evidence.checks[i]``, its
    constants ``fitted.per_t[i]`` and its rows series ``blowup_t<i>``;
    ``fitted`` also holds the solve radius and a summary that, when every
    time is convergent and at least three were measured, carries the Aitken
    limit of TV at the largest radius.
    """
    ts = monotone_reals(t_list, "t_list times", "decreasing")
    r0 = positive_real(r0, "ball radius r0")
    radii = monotone_reals(R_list, "R_list radii", least=2)
    if radii[0] <= r0:
        raise InvalidArgumentError(f"truncation radii must exceed r0={r0}")
    wall = ((constant_one(), ball_indicator(r0)), radii[-1], ts[::-1], controls, radii[0])
    # the signal's wall is checked and its walk laid out before its flat
    # companion forks beside it; flat space is its own companion
    faces, signal = _walled_ball(manifold, *wall)
    js = nearest_faces(faces, radii, "R_list")
    if (face := faces[js[0]]) <= r0:
        raise InvalidArgumentError(f"R_list radius {radii[0]} snaps onto the face {face:.6g}, "
                                   f"not beyond r0={r0}; space it wider or raise n_cells")
    (g, states, notes), (gf, flat_states, _) = [signal()] * 2 if manifold.family == "euclidean" \
        else solver.both(signal, lambda: _walled_ball(euclidean(manifold.dimension), *wall)[1]())
    k = int(np.argmin(np.abs(gf.faces[1:-1] - g.faces[js[-1]])))
    floors = [abs(float(functionals.flux_profile(s[:, 0] - s[:, 1], gf)[k]))
              for s in flat_states]
    rows, fitted, checks = zip(*(
        _blowup_at(manifold, g, state, js, floor)
        for state, floor in zip(states[::-1], floors[::-1])))

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


def comparison_check(R: float, n_cells: int) -> ExperimentReport:
    """Certificate run on the fast-growth model: barrier domination.

    On the Dirichlet grid of B_R in ``n_cells`` cells, the time integral
    v(t) = int_0^t P_s 1 ds increases to the discrete exit time
    w_h = (-L)^{-1} 1, ``solver.exit_time``.  So w_h <= w certifies
    v(t) <= w at every t at once, and with t u(t) <= v(t) it caps P_t 1 by
    w / t.  One node-wise statement is checked: w_h stays below (within
    ``VW_TOL``) the barrier w(r), the integral of (1 - exp(-s^4))/s^3 from
    r to R in closed form.
    """
    manifold = power_exp_weight(4, 1, 3)
    g = build_grid(manifold, R, n_cells)
    exit_h = solver.exit_time(assemble(g, manifold, DIRICHLET))

    # F(s) = (sqrt(pi) erf(s^2) - (1 - exp(-s^4))/s^2) / 2 is an
    # antiderivative of the integrand; w = F(R) - F(r) is taken term by term
    # with erfc, so no difference of two values near sqrt(pi)/2 is formed
    def terms(s):
        return math.sqrt(math.pi) * math.erfc(s ** 2), -math.expm1(-s ** 4) / s ** 2

    erfc_R, e_R = terms(g.R)
    w = np.array([0.5 * ((erfc_r - erfc_R) + (e_r - e_R))
                  for erfc_r, e_r in map(terms, g.centers.tolist())])

    excess = exit_h - w
    checks = [check("max_exit_time_minus_w", np.max(excess), "<=", VW_TOL)]
    verdict, finding = decide(checks, ("barrier dominates", "barrier violated",
                                       "undetermined"))

    rows = tuple({"r": float(r), "exit_time": float(e), "w_R": float(ww)}
                 for r, e, ww in zip(g.centers, exit_h, w))
    return ExperimentReport(
        series={"comparison": rows}, fitted={}, verdict=verdict,
        finding=finding, evidence={"checks": checks, "worst_nodes": {
            "exit_time_minus_w_at": float(g.centers[int(np.argmax(excess))])}})


def tail_probe(manifold: RadialManifold, datum: RadialBVDatum, R_out: float,
               t_list, controls: SolveControls) -> ExperimentReport:
    """Fit of the variation mass beyond a fixed radius against 1/t.

    The datum steps through every time on a one-level exhaustion walk walled
    off past R_out (``n_cells`` cells in all; an R_out at or beyond the
    overflow-safe radius is a RangeError), and the variation over faces
    beyond R_out is recorded at each time.  Only the maximal small-t run of
    strictly decreasing tails enters the fit (earlier times are
    pre-asymptotic); underflowed tails are dropped with a note.
    The fit is log(tail) = log(C) - c/t by least squares; confirmation
    requires a negative slope in 1/t with R^2 >= 0.95, and fewer than 3
    admissible points leave the run inconclusive without a fit.
    """
    support = instance(datum, RadialBVDatum).support_radius
    if not math.isfinite(support):
        raise InvalidArgumentError("datum must be compactly supported")
    if not 2.0 * support <= as_real(R_out) < math.inf:
        raise InvalidArgumentError(
            f"datum support {support} must fit inside half of R_out={R_out}")
    ts = monotone_reals(t_list, "t_list times", "decreasing")
    g, states, notes = _walled_ball(manifold, (datum,), R_out, ts[::-1], controls)[1]()
    rows = []
    for t, state in zip(ts, reversed(states)):
        terms = functionals.face_variation_terms(state[:, 0], g, manifold)
        tail = functionals.finite_fsum(terms[g.faces[1:-1] > R_out],
                                       f"variation tail beyond R_out={R_out:.6g} overflows")
        rows.append({"t": t, "tail": tail, "fit_residual": None})

    usable = [i for i, row in enumerate(rows) if row["tail"] > 1e-300]
    notes += [f"tail underflowed at t={row['t']}"
              for i, row in enumerate(rows) if i not in usable]
    # keep the maximal small-t suffix on which the tail strictly decreases
    admissible: list[int] = []
    for i in reversed(usable):
        if not admissible or rows[i]["tail"] > rows[admissible[0]]["tail"]:
            admissible.insert(0, i)
        else:
            break
    notes += [f"pre-asymptotic point excluded at t={rows[i]['t']}"
              for i in usable if i not in admissible]

    fitted = {"C": math.nan, "c": math.nan, "notes": notes}
    checks = [check("admissible_tail_points", len(admissible), ">=", 3,
                    "both")]
    undetermined = "fit quality below threshold"
    if checks[0]["status"] == "fail":
        undetermined = "too few usable tail points"
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
        fitted.update({"C": math.exp(intercept), "c": -slope})
        checks += [check("slope", slope, "<", 0),
                   check("r_squared", r_squared, ">=", 0.95),
                   check("slope", slope, ">=", 0, "refutes")]
    verdict, finding = decide(checks, (
        "tail decays exponentially in 1/t", "tail does not decay in 1/t",
        undetermined))
    return ExperimentReport(
        series={"tail": tuple(rows)}, fitted=fitted, verdict=verdict,
        finding=finding, evidence={"checks": checks})
