"""Correctness oracle for every benchmark operation.

Each output is checked against the invariants the library claims, at the
library's own tolerances, and against reference values computed outside
the library (see ``fixtures.py``).  Nothing is compared byte for byte: a
different eigensolver may legitimately change the last bits of a reported
eigenvalue.
"""

import json
import math

REFERENCE_REL_TOL = 1e-9        # library value against a Qhull reference value
RESIDUAL_REL_TOL = 1e-12        # slack of minkowski_check / alexandrov_fenchel_check
GAUSS_BONNET_TOL = 1e-6         # surface.GAUSS_BONNET_TOL
HOMOTHETY_DISTANCE = 1e-7       # acceptance criterion 11: distance < 1e-7 <=> homothety
# Acceptance criterion 06 allows 1e-5 on the unit cube's area 6 at depth 6;
# the quadrature is second order, so the relative bound grows 4x per level less.
SPHERE_REL_TOL_DEPTH6 = 1e-5 / 6.0


def _close(value, reference, rel=REFERENCE_REL_TOL):
    return abs(value - reference) <= rel * abs(reference)


def _inequality_ok(min_relative_residual):
    return min_relative_residual is not None and min_relative_residual >= -RESIDUAL_REL_TOL


def _polytope_sphere_area(r, e):
    bound = SPHERE_REL_TOL_DEPTH6 * 4.0 ** (6 - r["depth"])
    return [(r["difference"] <= bound * abs(r["quadratic_form"]), "quadrature difference"),
            (_close(r["quadratic_form"], e["area"]), "boundary area vs Qhull")]


def _polytope_boundary_metric(r, e):
    curvature = sum(2.0 * math.pi - a for a in r["cone_angles"])
    return [(r["genus"] == 0, "genus 0"),
            (len(r["cone_angles"]) == 2 * e["m"] - 4, "one cone per simple vertex"),
            (abs(curvature - 4.0 * math.pi) <= GAUSS_BONNET_TOL, "Gauss-Bonnet"),
            (_close(r["total_area"], e["area"]), "total area vs Qhull")]


def _fuchsian_distance(r, e):
    d = r["distance"]
    if e["homothety"]:
        return [(r["homothety"] is True, "homothety flag"),
                (0.0 <= d < HOMOTHETY_DISTANCE, "zero distance")]
    return [(r["homothety"] is False, "homothety flag"),
            (HOMOTHETY_DISTANCE <= d <= math.pi, "distance in (0, pi]")]


CLI_CHECKS = {
    "polygon area-form": lambda r, e: [
        (r["dim"] == e["n"], "dim"),
        (_close(r["area"], e["area"]), "area vs Qhull")],
    "polygon signature": lambda r, e: [
        (r["signature"] == [1, 2, e["n"] - 3], "signature (1, 2, n-3)")],
    "polygon minkowski": lambda r, e: [
        (r["samples"] > 0, "samples drawn"),
        (_inequality_ok(r["min_relative_residual"]), "Minkowski residual >= 0")],
    "polygon embed": lambda r, e: [
        (len(r["vertices"]) == e["n"], "one chart vertex per side"),
        (_close(r["area"], e["area"]), "chart area vs Qhull")],
    "polytope build": lambda r, e: [
        (r["faces"] == e["m"] and r["simple"], "simple with every face"),
        (r["vertices"] == 2 * e["m"] - 4, "2m - 4 vertices"),
        (_close(r["volume"], e["volume"]), "volume vs Qhull")],
    "polytope volume": lambda r, e: [
        (r["route_difference"] <= REFERENCE_REL_TOL * abs(r["volume"]), "volume routes agree"),
        (_close(r["volume"], e["volume"]), "volume vs Qhull")],
    "polytope area-form": lambda r, e: [
        (r["dim"] == e["m"], "dim"),
        (_close(r["boundary_area"], e["area"]), "boundary area vs Qhull")],
    "polytope signature": lambda r, e: [
        (r["signature"] == [1, 3, e["m"] - 4], "signature (1, 3, m-4)")],
    "polytope af-check": lambda r, e: [
        (r["samples"] > 0, "samples drawn"),
        (_inequality_ok(r["min_relative_residual"]), "Alexandrov-Fenchel residual >= 0")],
    "polytope measure": lambda r, e: [
        (len(r["arcs"]) == 3 * e["m"] - 6, "one arc per edge"),
        (r["total_weighted_length"] > 0.0, "positive total mean curvature")],
    "polytope sphere-area": _polytope_sphere_area,
    "polytope boundary-metric": _polytope_boundary_metric,
    "surface check": lambda r, e: [
        (r["genus"] == 0, "genus 0"),
        (r["gauss_bonnet_defect"] <= GAUSS_BONNET_TOL, "Gauss-Bonnet defect"),
        (_close(r["total_area"], e["area"]), "total area vs Qhull")],
    "surface flip": lambda r, e: [
        (len(r["mesh"]["triangles"]) == e["triangles"], "triangle count kept"),
        (_close(r["total_area"], e["area"]), "area kept")],
    "fuchsian hessian": lambda r, e: [
        (r["dim"] == e["m"], "dim"),
        (r["min_dominance_margin"] > 0.0, "strict diagonal dominance"),
        (min(r["eigenvalues"]) > 0.0, "positive definite")],
    "fuchsian area-form": lambda r, e: [
        (r["dim"] == e["m"], "dim"),
        (r["area"] > 0.0, "positive area")],
    "fuchsian check-pd": lambda r, e: [
        (r["signature"] == [e["m"], 0, 0] and r["positive_definite"], "signature (m, 0, 0)")],
    "fuchsian distance": _fuchsian_distance,
}


def check_cli(call, fixture, exit_code, stdout):
    """None when a CLI call's output is correct, else the first reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if call["command"] == "version":
        return None if stdout.startswith("mixedform ") else "no version line"
    try:
        report = json.loads(stdout)
        if report["command"] != call["command"]:
            return f"report is for {report['command']!r}"
        if report["input"]["sha256"] != fixture["sha256"]:
            return "input digest differs from the fixture"
        for ok, what in CLI_CHECKS[call["command"]](report["results"], fixture["expected"]):
            if not ok:
                return what
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    return None


def check_inequality(result, what):
    """Minkowski or Alexandrov-Fenchel result of one sampled pair."""
    if not (result.scale > 0.0 and result.residual >= -RESIDUAL_REL_TOL * result.scale):
        return f"{what} residual {result.residual!r} at scale {result.scale!r}"
    return None


def check_fuchsian_pair(distance, hessian):
    """Spherical distance and covolume Hessian of one sampled pair."""
    if not (0.0 <= distance <= math.pi):
        return f"spherical distance {distance!r} outside [0, pi]"
    J = hessian.entries
    for i in range(J.shape[0]):
        margin = 2.0 * abs(J[i, i]) - sum(abs(x) for x in J[i])
        if not (J[i, i] > 0.0 and margin > 0.0):
            return f"Hessian row {i} not strictly dominant (margin {margin!r})"
    return None
