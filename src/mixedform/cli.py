"""Command line front end.

Layout: ``mixedform <family> <operation> FILE [options]`` with families
``polygon``, ``surface``, ``polytope``, ``fuchsian``.  Input files are the
JSON documents described in the README.  Exit codes:

    0   success
    2   bad input: malformed JSON, schema violations, infeasible or
        degenerate geometry, internal consistency failures
    3   a claimed mathematical invariant was falsified on valid input
    64  usage error (unknown command, bad flags)

Reports are printed to stdout.  With ``--json`` the report is a single
deterministic JSON object (sorted keys, no timing information, the input
digest and any seed echoed back), so identical invocations produce
byte-identical output.  The human-readable form adds wall time.
"""

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__, forms, fuchsian, polygon, polytope, surface
from .errors import InvalidInput, InvariantFalsified, MixedFormError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FALSIFIED = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_json(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    return data, hashlib.sha256(raw).hexdigest()


def _parse_vector(text, n, what):
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidInput(f"{what}: expected comma-separated numbers, got {text!r}") from exc
    if len(values) != n:
        raise InvalidInput(f"{what}: expected {n} entries, got {len(values)}")
    return np.asarray(values)


def _py(obj):
    """Recursively convert numpy scalars/arrays into plain python objects."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _py(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    return obj


def _matrix_lines(entries, indent="  "):
    return [indent + "  ".join(f"{x: .12g}" for x in row) for row in entries]


def _human(lines, elapsed):
    out = list(lines)
    out.append(f"wall time: {elapsed:.3f}s")
    return "\n".join(out)


# =============================================================================
# POLYGON COMMANDS
# =============================================================================

def _polygon_load(path):
    data, digest = _load_json(path)
    support = polygon.PolygonSupport.from_json_dict(data)
    return support, digest


def cmd_polygon_area_form(args):
    support, digest = _polygon_load(args.file)
    form = polygon.area_form(support.fan)
    results = {"dim": form.dim, "entries": form.entries.tolist(),
               "area": form.q(support.h)}
    lines = [f"area form ({form.dim} x {form.dim}):"]
    lines += _matrix_lines(form.entries)
    lines.append(f"area(h) = {results['area']:.12g}")
    return results, {}, digest, lines


def cmd_polygon_signature(args):
    support, digest = _polygon_load(args.file)
    tol = args.tol if args.tol is not None else forms.DEFAULT_ZERO_THRESHOLD
    form = polygon.area_form(support.fan)
    sig = form.signature(zero_threshold=tol)
    results = {"signature": list(sig.as_tuple), "eigenvalues": form.eigenvalues().tolist()}
    lines = [f"signature (+, 0, -) = {sig.as_tuple}",
             f"zero threshold: {tol:g} (relative)"]
    return results, {"zero_threshold": tol}, digest, lines


def cmd_polygon_minkowski(args):
    support, digest = _polygon_load(args.file)
    fan, h = support.fan, support.h
    tolerances = {"equality": polygon.EQUALITY_TOL, "witness": polygon.WITNESS_TOL}
    if args.k is not None:
        k = _parse_vector(args.k, fan.n, "--k")
        res = polygon.minkowski_check(fan, h, k)
        results = {"residual": res.residual, "scale": res.scale,
                   "equality": res.equality,
                   "witness": None if res.witness_x is None else
                   {"x": list(res.witness_x), "lambda": res.witness_lambda}}
        lines = [f"mixed area inequality residual b(h,k)^2 - a(h)a(k) = {res.residual:.6e}",
                 f"scale: {res.scale:.6e}",
                 f"equality case: {'yes' if res.equality else 'no'}"]
        if res.witness_x is not None:
            lines.append(f"witness: h = support(x) + lambda k, x = "
                         f"({res.witness_x[0]:.9g}, {res.witness_x[1]:.9g}), "
                         f"lambda = {res.witness_lambda:.9g}")
        return results, tolerances, digest, lines
    rng = np.random.default_rng(args.seed)
    worst = None
    n_equal = 0
    for _ in range(args.samples):
        a = polygon.sample_interior(fan, rng)
        b = polygon.sample_interior(fan, rng)
        res = polygon.minkowski_check(fan, a, b)
        rel = res.residual / res.scale
        if worst is None or rel < worst:
            worst = rel
        n_equal += bool(res.equality)
    results = {"samples": args.samples, "min_relative_residual": worst,
               "equality_cases": n_equal}
    lines = [f"checked {args.samples} random pairs",
             f"min relative residual: {worst:.6e}" if worst is not None
             else "no samples drawn",
             f"equality cases: {n_equal}"]
    return results, tolerances, digest, lines


def cmd_polygon_embed(args):
    support, digest = _polygon_load(args.file)
    z, herm = polygon.double_chart_embedding(support.fan, support.h)
    sig = herm.signature()
    results = {"vertices": [[float(w.real), float(w.imag)] for w in z],
               "area": herm.q(z),
               "hermitian_signature": list(sig.as_tuple)}
    lines = ["vertex chart (re, im):"]
    lines += [f"  {w.real: .12g}  {w.imag: .12g}" for w in z]
    lines.append(f"area from the chart form: {results['area']:.12g}")
    lines.append(f"chart form signature: {sig.as_tuple}")
    return results, {}, digest, lines


# =============================================================================
# SURFACE COMMANDS
# =============================================================================

def cmd_surface_check(args):
    data, digest = _load_json(args.file)
    mesh = surface.TriangleMesh.from_json_dict(data)
    cone = surface.cone_data(mesh)
    results = {
        "triangles": mesh.num_triangles,
        "vertices": len(cone.cone_angles),
        "genus": cone.genus,
        "singular_vertices": cone.n_singular,
        "cone_angles": list(cone.cone_angles),
        "curvatures": list(cone.curvatures),
        "gauss_bonnet_defect": cone.gauss_bonnet_defect,
        "total_area": surface.total_area(mesh),
    }
    lines = [f"triangles: {mesh.num_triangles}, vertices: {len(cone.cone_angles)}, "
             f"genus: {cone.genus}",
             f"singular vertices: {cone.n_singular}",
             "cone angles: " + ", ".join(f"{a:.9g}" for a in cone.cone_angles),
             f"Gauss-Bonnet defect: {cone.gauss_bonnet_defect:.3e}",
             f"total area: {results['total_area']:.12g}"]
    return results, {"gauss_bonnet": surface.GAUSS_BONNET_TOL,
                     "singular": surface.SINGULAR_TOL}, digest, lines


def cmd_surface_flip(args):
    data, digest = _load_json(args.file)
    mesh = surface.TriangleMesh.from_json_dict(data)
    flipped = surface.flip(mesh, (args.triangle, args.edge))
    results = {"mesh": flipped.to_json_dict(),
               "total_area": surface.total_area(flipped)}
    lines = [f"flipped edge ({args.triangle}, {args.edge})",
             json.dumps(flipped.to_json_dict(), sort_keys=True)]
    return results, {}, digest, lines


# =============================================================================
# POLYTOPE COMMANDS
# =============================================================================

def _polytope_load(path):
    data, digest = _load_json(path)
    fan, h = polytope.fan_from_json_dict(data)
    return fan, h, digest


def cmd_polytope_build(args):
    fan, h, digest = _polytope_load(args.file)
    results = dict(fan.metadata)
    results["volume"] = polytope.volume(fan, h)
    lines = [f"faces: {results['faces']}, vertices: {results['vertices']}, "
             f"edges: {results['edges']}",
             f"simple: {'yes' if results['simple'] else 'no'}",
             f"volume: {results['volume']:.12g}"]
    return results, {}, digest, lines


def cmd_polytope_volume(args):
    fan, h, digest = _polytope_load(args.file)
    direct = polytope.volume(fan, h)
    via_form = polytope.volume_form(fan).v(h, h, h)
    results = {"volume": direct, "volume_from_form": via_form,
               "route_difference": abs(direct - via_form)}
    lines = [f"volume: {direct:.12g}",
             f"from the mixed volume tensor: {via_form:.12g}"]
    return results, {}, digest, lines


def cmd_polytope_area_form(args):
    fan, h, digest = _polytope_load(args.file)
    form = polytope.boundary_area_form(fan)
    results = {"dim": form.dim, "entries": form.entries.tolist(),
               "boundary_area": form.q(h)}
    lines = [f"boundary area form ({form.dim} x {form.dim}):"]
    lines += _matrix_lines(form.entries)
    lines.append(f"boundary area(h) = {results['boundary_area']:.12g}")
    return results, {}, digest, lines


def cmd_polytope_signature(args):
    fan, h, digest = _polytope_load(args.file)
    tol = args.tol if args.tol is not None else forms.DEFAULT_ZERO_THRESHOLD
    form = polytope.boundary_area_form(fan)
    sig = form.signature(zero_threshold=tol)
    results = {"signature": list(sig.as_tuple),
               "eigenvalues": form.eigenvalues().tolist()}
    lines = [f"signature (+, 0, -) = {sig.as_tuple}",
             f"zero threshold: {tol:g} (relative)"]
    return results, {"zero_threshold": tol}, digest, lines


def cmd_polytope_af_check(args):
    fan, h, digest = _polytope_load(args.file)
    tolerances = {"equality": polytope.EQUALITY_TOL, "witness": polytope.WITNESS_TOL}
    if args.k is not None:
        k = _parse_vector(args.k, fan.m, "--k")
        p = h if args.p is None else _parse_vector(args.p, fan.m, "--p")
        res = polytope.alexandrov_fenchel_check(fan, h, k, p)
        results = {"residual": res.residual, "scale": res.scale,
                   "equality": res.equality,
                   "witness": None if res.witness_x is None else
                   {"x": list(res.witness_x), "lambda": res.witness_lambda}}
        lines = [f"v(h,k,p)^2 - v(h,h,p)v(k,k,p) = {res.residual:.6e}",
                 f"scale: {res.scale:.6e}",
                 f"equality case: {'yes' if res.equality else 'no'}"]
        if res.witness_x is not None:
            lines.append(f"witness: h = support(x) + lambda k, "
                         f"x = ({res.witness_x[0]:.9g}, {res.witness_x[1]:.9g}, "
                         f"{res.witness_x[2]:.9g}), lambda = {res.witness_lambda:.9g}")
        return results, tolerances, digest, lines
    rng = np.random.default_rng(args.seed)
    worst = None
    n_equal = 0
    for _ in range(args.samples):
        a = polytope.sample_interior(fan, h, rng)
        b = polytope.sample_interior(fan, h, rng)
        res = polytope.alexandrov_fenchel_check(fan, a, b, h)
        rel = res.residual / res.scale
        if worst is None or rel < worst:
            worst = rel
        n_equal += bool(res.equality)
    results = {"samples": args.samples, "min_relative_residual": worst,
               "equality_cases": n_equal}
    lines = [f"checked {args.samples} random pairs against the reference body",
             f"min relative residual: {worst:.6e}" if worst is not None
             else "no samples drawn",
             f"equality cases: {n_equal}"]
    return results, tolerances, digest, lines


def cmd_polytope_measure(args):
    fan, h, digest = _polytope_load(args.file)
    measure = polytope.first_area_measure(fan, h)
    results = {"arcs": [{"faces": list(a.faces), "arc_length": a.arc_length,
                         "weight": a.weight} for a in measure.arcs],
               "total_weighted_length": measure.total_weighted_length}
    lines = [f"{len(measure.arcs)} boundary arcs, "
             f"total weighted length {measure.total_weighted_length:.12g}"]
    for a in measure.arcs:
        lines.append(f"  faces {a.faces}: arc {a.arc_length:.9g}, "
                     f"edge length {a.weight:.9g}")
    return results, {}, digest, lines


def cmd_polytope_sphere_area(args):
    fan, h, digest = _polytope_load(args.file)
    value = polytope.area_via_sphere_integral(fan, h, depth=args.depth)
    exact = polytope.boundary_area_form(fan).q(h)
    results = {"depth": args.depth, "quadrature": value, "quadratic_form": exact,
               "difference": abs(value - exact)}
    lines = [f"sphere quadrature at depth {args.depth}: {value:.12g}",
             f"boundary area form value: {exact:.12g}",
             f"difference: {results['difference']:.3e}"]
    return results, {}, digest, lines


def cmd_polytope_boundary_metric(args):
    fan, h, digest = _polytope_load(args.file)
    mesh = polytope.boundary_metric(fan, h)
    cone = surface.cone_data(mesh)
    results = {"mesh": mesh.to_json_dict(),
               "genus": cone.genus,
               "cone_angles": list(cone.cone_angles),
               "total_area": surface.total_area(mesh)}
    lines = [f"boundary mesh: {mesh.num_triangles} triangles, genus {cone.genus}",
             "cone angles: " + ", ".join(f"{a:.9g}" for a in cone.cone_angles),
             f"total area: {results['total_area']:.12g}"]
    return results, {}, digest, lines


# =============================================================================
# FUCHSIAN COMMANDS
# =============================================================================

def _fuchsian_load(path):
    data, digest = _load_json(path)
    fan, h = fuchsian.fan_from_json_dict(data)
    return fan, h, digest


def cmd_fuchsian_hessian(args):
    fan, h, digest = _fuchsian_load(args.file)
    hess = fuchsian.covolume_hessian(fan, h)
    eigs = hess.eigenvalues()
    J = hess.entries
    margins = 2.0 * np.abs(np.diag(J)) - np.abs(J).sum(axis=1)
    results = {"dim": hess.dim, "entries": J.tolist(),
               "eigenvalues": eigs.tolist(),
               "min_dominance_margin": float(np.min(margins))}
    lines = [f"covolume Hessian ({hess.dim} x {hess.dim}):"]
    lines += _matrix_lines(J)
    lines.append(f"eigenvalue range: [{eigs[0]:.9g}, {eigs[-1]:.9g}]")
    lines.append(f"min diagonal dominance margin: {results['min_dominance_margin']:.9g}")
    return results, {}, digest, lines


def cmd_fuchsian_area_form(args):
    fan, h, digest = _fuchsian_load(args.file)
    form = fuchsian.fuchsian_area_form(fan)
    results = {"dim": form.dim, "entries": form.entries.tolist(),
               "area": form.q(h)}
    lines = [f"area form ({form.dim} x {form.dim}):"]
    lines += _matrix_lines(form.entries)
    lines.append(f"area(h) = {results['area']:.12g}")
    return results, {}, digest, lines


def cmd_fuchsian_check_pd(args):
    fan, h, digest = _fuchsian_load(args.file)
    tol = args.tol if args.tol is not None else forms.DEFAULT_ZERO_THRESHOLD
    form = fuchsian.fuchsian_area_form(fan)
    sig = form.signature(zero_threshold=tol)
    eigs = form.eigenvalues()
    if sig.as_tuple != (fan.m, 0, 0):
        raise InvariantFalsified(
            f"Fuchsian area form signature {sig.as_tuple} at zero threshold "
            f"{tol:g}; expected ({fan.m}, 0, 0).  Eigenvalues: "
            + ", ".join(f"{x:.6g}" for x in eigs))
    results = {"signature": list(sig.as_tuple), "eigenvalues": eigs.tolist(),
               "positive_definite": True}
    lines = [f"positive definite: signature {sig.as_tuple}",
             f"min eigenvalue: {eigs[0]:.9g}"]
    return results, {"zero_threshold": tol}, digest, lines


def cmd_fuchsian_distance(args):
    fan, h, digest = _fuchsian_load(args.file)
    k = _parse_vector(args.k, fan.m, "--k")
    dist = fuchsian.spherical_distance(fan, h, k)
    homothety = fuchsian.is_homothety_pair(fan, h, k)
    results = {"distance": dist, "homothety": homothety}
    lines = [f"spherical distance: {dist:.12g}",
             f"homothety pair: {'yes' if homothety else 'no'}"]
    return results, {"homothety": fuchsian.HOMOTHETY_TOL}, digest, lines


# =============================================================================
# PARSER AND DISPATCH
# =============================================================================

def _add_common(sp, tol=False, seedable=False, depth=False):
    sp.add_argument("file", help="input JSON file")
    sp.add_argument("--json", action="store_true", help="machine-readable report")
    if tol:
        sp.add_argument("--tol", type=float, default=None,
                        help="relative zero threshold for eigenvalue classification")
    if seedable:
        sp.add_argument("--samples", type=int, default=0,
                        help="number of random checks (ignored with explicit vectors)")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    if depth:
        sp.add_argument("--depth", type=int, default=4,
                        help="geodesic subdivision depth")


def build_parser():
    parser = _Parser(prog="mixedform",
                     description="deformation forms of polygons, polytopes, "
                                 "and their Fuchsian quotients")
    parser.add_argument("--version", action="version", version=f"mixedform {__version__}")
    top = parser.add_subparsers(dest="family", required=True, metavar="FAMILY")

    pg = top.add_parser("polygon", help="planar support-number computations")
    pg_sub = pg.add_subparsers(dest="op", required=True, metavar="OP")
    sp = pg_sub.add_parser("area-form", help="area as a quadratic form")
    _add_common(sp)
    sp.set_defaults(func=cmd_polygon_area_form)
    sp = pg_sub.add_parser("signature", help="inertia of the area form")
    _add_common(sp, tol=True)
    sp.set_defaults(func=cmd_polygon_signature)
    sp = pg_sub.add_parser("minkowski", help="mixed area inequality with witnesses")
    _add_common(sp, seedable=True)
    sp.add_argument("--k", default=None, help="second support vector, comma separated")
    sp.set_defaults(func=cmd_polygon_minkowski)
    sp = pg_sub.add_parser("embed", help="vertex chart and its Hermitian area form")
    _add_common(sp)
    sp.set_defaults(func=cmd_polygon_embed)

    sf = top.add_parser("surface", help="flat cone metrics from glued triangles")
    sf_sub = sf.add_subparsers(dest="op", required=True, metavar="OP")
    sp = sf_sub.add_parser("check", help="cone angles, curvature, Gauss-Bonnet")
    _add_common(sp)
    sp.set_defaults(func=cmd_surface_check)
    sp = sf_sub.add_parser("flip", help="replace an edge by the cross diagonal")
    _add_common(sp)
    sp.add_argument("--triangle", type=int, required=True)
    sp.add_argument("--edge", type=int, required=True)
    sp.set_defaults(func=cmd_surface_flip)

    pt = top.add_parser("polytope", help="3D support-number computations")
    pt_sub = pt.add_subparsers(dest="op", required=True, metavar="OP")
    sp = pt_sub.add_parser("build", help="normal fan combinatorics from planes")
    _add_common(sp)
    sp.set_defaults(func=cmd_polytope_build)
    sp = pt_sub.add_parser("volume", help="volume, two independent routes")
    _add_common(sp)
    sp.set_defaults(func=cmd_polytope_volume)
    sp = pt_sub.add_parser("area-form", help="boundary area as a quadratic form")
    _add_common(sp)
    sp.set_defaults(func=cmd_polytope_area_form)
    sp = pt_sub.add_parser("signature", help="inertia of the boundary area form")
    _add_common(sp, tol=True)
    sp.set_defaults(func=cmd_polytope_signature)
    sp = pt_sub.add_parser("af-check", help="mixed volume inequality with witnesses")
    _add_common(sp, seedable=True)
    sp.add_argument("--k", default=None, help="second support vector, comma separated")
    sp.add_argument("--p", default=None, help="reference support vector (default: file h)")
    sp.set_defaults(func=cmd_polytope_af_check)
    sp = pt_sub.add_parser("measure", help="first area measure on the sphere")
    _add_common(sp)
    sp.set_defaults(func=cmd_polytope_measure)
    sp = pt_sub.add_parser("sphere-area", help="boundary area by spherical quadrature")
    _add_common(sp, depth=True)
    sp.set_defaults(func=cmd_polytope_sphere_area)
    sp = pt_sub.add_parser("boundary-metric", help="induced flat cone metric")
    _add_common(sp)
    sp.set_defaults(func=cmd_polytope_boundary_metric)

    fc = top.add_parser("fuchsian", help="equivariant polyhedra modulo a lattice")
    fc_sub = fc.add_subparsers(dest="op", required=True, metavar="OP")
    sp = fc_sub.add_parser("hessian", help="covolume Hessian at h")
    _add_common(sp)
    sp.set_defaults(func=cmd_fuchsian_hessian)
    sp = fc_sub.add_parser("area-form", help="total face area as a quadratic form")
    _add_common(sp)
    sp.set_defaults(func=cmd_fuchsian_area_form)
    sp = fc_sub.add_parser("check-pd", help="assert positive definiteness")
    _add_common(sp, tol=True)
    sp.set_defaults(func=cmd_fuchsian_check_pd)
    sp = fc_sub.add_parser("distance", help="spherical distance between supports")
    _add_common(sp)
    sp.add_argument("--k", required=True, help="second support vector, comma separated")
    sp.set_defaults(func=cmd_fuchsian_distance)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    start = time.perf_counter()
    try:
        results, tolerances, digest, lines = args.func(args)
    except InvariantFalsified as exc:
        print(f"mixedform: invariant falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except MixedFormError as exc:
        print(f"mixedform: {exc}", file=sys.stderr)
        return EXIT_INPUT
    elapsed = time.perf_counter() - start
    if args.json:
        report = {
            "schema": 1,
            "command": f"{args.family} {args.op}",
            "input": {"path": args.file, "sha256": digest},
            "results": _py(results),
            "tolerances": _py(tolerances),
        }
        if getattr(args, "seed", None) is not None and getattr(args, "samples", 0):
            report["seed"] = args.seed
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_human(lines, elapsed))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
