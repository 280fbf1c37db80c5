"""Command line front end.

Layout: ``mixedform <family> <operation> FILE [options]`` with families
``polygon``, ``surface``, ``polytope``, ``fuchsian``.  Input files are the
JSON documents described in the README.  Exit codes:

    0   success
    2   bad input: malformed JSON, schema violations, infeasible or
        degenerate geometry, internal consistency failures
    3   a claimed mathematical invariant was falsified on valid input
    64  usage error (unknown command, bad flags, a negative --samples or
        --seed, --p without --k)

Reports are printed to stdout.  With ``--json`` the report is a single
deterministic JSON object (sorted keys, no timing information, the input
digest, and the seed when random pairs were drawn), so identical
invocations produce byte-identical output.  The human-readable form adds
wall time.

``--samples S`` checks S random pairs: pair i is rows 2i and 2i+1 of the
vectors drawn in a row from ``numpy.random.default_rng(--seed)``.  They are
drawn and checked in chunks of at most SAMPLE_BATCH_ELEMENTS vector entries,
one sampler call and one check call per chunk, so memory stays bounded for
any S and the report does not depend on the chunk size.
"""

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__, forms
from .errors import DomainError, InvalidInput, InvariantFalsified, MixedFormError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FALSIFIED = 3
EXIT_USAGE = 64
#: bound on the entries of the sampled vectors drawn and checked at once
SAMPLE_BATCH_ELEMENTS = 1 << 16


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


def _matrix_lines(entries):
    return ["  " + "  ".join(f"{x: .12g}" for x in row) for row in entries]


# =============================================================================
# SHARED REPORTS
# =============================================================================
# A command maps (lib, args, fan, h) -- (mesh, None) for surfaces -- to
# (results, tolerances, human lines), where lib is the module of its family
# (the commands of one family name it after the family).  ``main`` imports
# only that module, so a call loads, and with bytecode writing off compiles,
# no other family's code.  Commands look library functions up on lib when
# they run, so that wrappers installed on the library modules after import
# see each call.

def _area_form_report(name, key):
    """The matrix of ``lib.name(fan)`` and its value at h, named ``key``."""
    label = key.replace("_", " ")

    def command(lib, args, fan, h):
        form = getattr(lib, name)(fan)
        results = {"dim": form.dim, "entries": form.entries.tolist(), key: form.q(h)}
        lines = [f"{label} form ({form.dim} x {form.dim}):"]
        lines += _matrix_lines(form.entries)
        lines.append(f"{label}(h) = {results[key]:.12g}")
        return results, {}, lines
    return command


def _signature_report(name):
    """Signature and eigenvalues of ``lib.name(fan)`` at the --tol threshold."""

    def command(lib, args, fan, h):
        form = getattr(lib, name)(fan)
        sig = form.signature(zero_threshold=args.tol)
        results = {"signature": list(sig), "eigenvalues": form.eigenvalues().tolist()}
        lines = [f"signature (+, 0, -) = {tuple(sig)}",
                 f"zero threshold: {args.tol:g} (relative)"]
        return results, {"zero_threshold": args.tol}, lines
    return command


def _inequality_report(check, sample, residual_label, pairs_label):
    """``check(lib, fan, h, k, p)`` on --k (--p, default h), or on sampled pairs with p = h.

    ``sample(lib, fan, h, rng, size)`` draws a (size, n) stack; ``check`` takes
    row-aligned stacks of h and k.  Both run once per chunk of pairs.
    """
    def command(lib, args, fan, h):
        tolerances = {"equality": forms.EQUALITY_TOL, "witness": forms.WITNESS_TOL}
        if args.k is not None:
            k = _parse_vector(args.k, len(h), "--k")
            p = h if getattr(args, "p", None) is None else _parse_vector(args.p, len(h), "--p")
            res = check(lib, fan, h, k, p)
            results = {"residual": res.residual, "scale": res.scale,
                       "equality": res.equality,
                       "witness": None if res.witness_x is None else
                       {"x": list(res.witness_x), "lambda": res.witness_lambda}}
            lines = [f"{residual_label} = {res.residual:.6e}",
                     f"scale: {res.scale:.6e}",
                     f"equality case: {'yes' if res.equality else 'no'}"]
            if res.witness_x is not None:
                x = ", ".join(f"{c:.9g}" for c in res.witness_x)
                lines.append(f"witness: h = support(x) + lambda k, x = ({x}), "
                             f"lambda = {res.witness_lambda:.9g}")
            return results, tolerances, lines
        rng = np.random.default_rng(args.seed)
        chunk = max(1, SAMPLE_BATCH_ELEMENTS // (2 * len(h)))
        worst, n_equal = None, 0
        for start in range(0, args.samples, chunk):
            rows = sample(lib, fan, h, rng, 2 * min(chunk, args.samples - start))
            res = check(lib, fan, rows[0::2], rows[1::2], h)
            low = float(np.min(res.residual / res.scale))
            worst = low if worst is None else min(worst, low)
            n_equal += int(np.count_nonzero(res.equality))
        results = {"samples": args.samples, "min_relative_residual": worst,
                   "equality_cases": n_equal}
        lines = [f"checked {args.samples} random pairs{pairs_label}",
                 f"min relative residual: {worst:.6e}" if worst is not None
                 else "no samples drawn",
                 f"equality cases: {n_equal}"]
        return results, tolerances, lines
    return command


# =============================================================================
# COMMANDS WITH THEIR OWN COMPUTATIONS
# =============================================================================

def _polygon_embed(polygon, args, fan, h):
    z, herm = polygon.double_chart_embedding(fan, h)
    sig = herm.signature()
    results = {"vertices": [[float(w.real), float(w.imag)] for w in z],
               "area": herm.q(z),
               "hermitian_signature": list(sig)}
    lines = ["vertex chart (re, im):"]
    lines += [f"  {w.real: .12g}  {w.imag: .12g}" for w in z]
    lines.append(f"area from the chart form: {results['area']:.12g}")
    lines.append(f"chart form signature: {tuple(sig)}")
    return results, {}, lines


def _surface_check(surface, args, mesh, h):
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
                     "singular": surface.SINGULAR_TOL}, lines


def _surface_flip(surface, args, mesh, h):
    flipped = surface.flip(mesh, (args.triangle, args.edge))
    results = {"mesh": flipped.to_json_dict(),
               "total_area": surface.total_area(flipped)}
    lines = [f"flipped edge ({args.triangle}, {args.edge})",
             json.dumps(flipped.to_json_dict(), sort_keys=True)]
    return results, {}, lines


def _polytope_build(polytope, args, fan, h):
    results = dict(fan.metadata)
    results["volume"] = polytope.volume(fan, h)
    lines = [f"faces: {results['faces']}, vertices: {results['vertices']}, "
             f"edges: {results['edges']}",
             f"simple: {'yes' if results['simple'] else 'no'}",
             f"volume: {results['volume']:.12g}"]
    return results, {}, lines


def _polytope_volume(polytope, args, fan, h):
    direct = polytope.volume(fan, h)
    via_form = polytope.volume_form(fan).v(h, h, h)
    results = {"volume": direct, "volume_from_form": via_form,
               "route_difference": abs(direct - via_form)}
    lines = [f"volume: {direct:.12g}",
             f"from the mixed volume tensor: {via_form:.12g}"]
    return results, {}, lines


def _polytope_measure(polytope, args, fan, h):
    measure = polytope.first_area_measure(fan, h)
    results = {"arcs": [{"faces": list(a.faces), "arc_length": a.arc_length,
                         "weight": a.weight} for a in measure.arcs],
               "total_weighted_length": measure.total_weighted_length}
    lines = [f"{len(measure.arcs)} boundary arcs, "
             f"total weighted length {measure.total_weighted_length:.12g}"]
    for a in measure.arcs:
        lines.append(f"  faces {a.faces}: arc {a.arc_length:.9g}, "
                     f"edge length {a.weight:.9g}")
    return results, {}, lines


def _polytope_sphere_area(polytope, args, fan, h):
    value = polytope.area_via_sphere_integral(fan, h, depth=args.depth)
    exact = polytope.boundary_area_form(fan).q(h)
    results = {"depth": args.depth, "quadrature": value, "quadratic_form": exact,
               "difference": abs(value - exact)}
    lines = [f"sphere quadrature at depth {args.depth}: {value:.12g}",
             f"boundary area form value: {exact:.12g}",
             f"difference: {results['difference']:.3e}"]
    return results, {}, lines


def _polytope_boundary_metric(polytope, args, fan, h):
    from . import surface       # the one command that reads a second family

    mesh = polytope.boundary_metric(fan, h)
    cone = surface.cone_data(mesh)
    results = {"mesh": mesh.to_json_dict(),
               "genus": cone.genus,
               "cone_angles": list(cone.cone_angles),
               "total_area": surface.total_area(mesh)}
    lines = [f"boundary mesh: {mesh.num_triangles} triangles, genus {cone.genus}",
             "cone angles: " + ", ".join(f"{a:.9g}" for a in cone.cone_angles),
             f"total area: {results['total_area']:.12g}"]
    return results, {}, lines


def _fuchsian_hessian(fuchsian, args, fan, h):
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
    return results, {}, lines


def _fuchsian_check_pd(fuchsian, args, fan, h):
    results, tolerances, _ = _signature_report("fuchsian_area_form")(fuchsian, args, fan, h)
    sig, eigs = tuple(results["signature"]), results["eigenvalues"]
    if sig != (fan.m, 0, 0):
        raise InvariantFalsified(
            f"Fuchsian area form signature {sig} at zero threshold "
            f"{args.tol:g}; expected ({fan.m}, 0, 0).  Eigenvalues: "
            + ", ".join(f"{x:.6g}" for x in eigs))
    results["positive_definite"] = True
    lines = [f"positive definite: signature {sig}",
             f"min eigenvalue: {eigs[0]:.9g}"]
    return results, tolerances, lines


def _fuchsian_distance(fuchsian, args, fan, h):
    k = _parse_vector(args.k, fan.m, "--k")
    dist = fuchsian.spherical_distance(fan, h, k)
    homothety = fuchsian.is_homothety_pair(fan, h, k)
    results = {"distance": dist, "homothety": homothety}
    lines = [f"spherical distance: {dist:.12g}",
             f"homothety pair: {'yes' if homothety else 'no'}"]
    return results, {"homothety": fuchsian.HOMOTHETY_TOL}, lines


# =============================================================================
# COMMAND TABLE
# =============================================================================

def _load_polygon(polygon, data):
    support = polygon.PolygonSupport.from_json_dict(data)
    return support.fan, support.h


def _load_fan(lib, data):
    return lib.fan_from_json_dict(data)


# family -> (help, (family module, JSON document) -> (fan or mesh, h))
LOADERS = {
    "polygon": ("planar support-number computations", _load_polygon),
    "surface": ("flat cone metrics from glued triangles",
                lambda surface, data: (surface.TriangleMesh.from_json_dict(data), None)),
    "polytope": ("3D support-number computations", _load_fan),
    "fuchsian": ("equivariant polyhedra modulo a lattice", _load_fan),
}

# option group -> [(flag, add_argument keywords)]
OPTIONS = {
    "tol": [("--tol", dict(type=float, default=forms.DEFAULT_ZERO_THRESHOLD,
                           help="relative zero threshold for eigenvalue classification"))],
    "samples": [("--samples", dict(type=int, default=0,
                                   help="number of random checks (ignored with explicit vectors)")),
                ("--seed", dict(type=int, default=0, help="RNG seed"))],
    "depth": [("--depth", dict(type=int, default=4, help="geodesic subdivision depth"))],
    "k": [("--k", dict(default=None, help="second support vector, comma separated"))],
    "required k": [("--k", dict(required=True, help="second support vector, comma separated"))],
    "p": [("--p", dict(default=None, help="reference support vector (default: file h)"))],
    "edge": [("--triangle", dict(type=int, required=True)),
             ("--edge", dict(type=int, required=True))],
}

# (family, op) -> (help, option groups, command)
COMMANDS = {
    ("polygon", "area-form"): (
        "area as a quadratic form", (), _area_form_report("area_form", "area")),
    ("polygon", "signature"): (
        "inertia of the area form", ("tol",), _signature_report("area_form")),
    ("polygon", "minkowski"): (
        "mixed area inequality with witnesses", ("samples", "k"),
        _inequality_report(lambda lib, fan, h, k, p: lib.minkowski_check(fan, h, k),
                           lambda lib, fan, h, rng, size: lib.sample_interior(fan, rng, size),
                           "mixed area inequality residual b(h,k)^2 - a(h)a(k)", "")),
    ("polygon", "embed"): ("vertex chart and its Hermitian area form", (), _polygon_embed),
    ("surface", "check"): ("cone angles, curvature, Gauss-Bonnet", (), _surface_check),
    ("surface", "flip"): ("replace an edge by the cross diagonal", ("edge",), _surface_flip),
    ("polytope", "build"): ("normal fan combinatorics from planes", (), _polytope_build),
    ("polytope", "volume"): ("volume, two independent routes", (), _polytope_volume),
    ("polytope", "area-form"): (
        "boundary area as a quadratic form", (),
        _area_form_report("boundary_area_form", "boundary_area")),
    ("polytope", "signature"): (
        "inertia of the boundary area form", ("tol",),
        _signature_report("boundary_area_form")),
    ("polytope", "af-check"): (
        "mixed volume inequality with witnesses", ("samples", "k", "p"),
        _inequality_report(lambda lib, fan, h, k, p: lib.alexandrov_fenchel_check(fan, h, k, p),
                           lambda lib, fan, h, rng, size: lib.sample_interior(fan, h, rng, size),
                           "v(h,k,p)^2 - v(h,h,p)v(k,k,p)", " against the reference body")),
    ("polytope", "measure"): ("first area measure on the sphere", (), _polytope_measure),
    ("polytope", "sphere-area"): (
        "boundary area by spherical quadrature", ("depth",), _polytope_sphere_area),
    ("polytope", "boundary-metric"): ("induced flat cone metric", (), _polytope_boundary_metric),
    ("fuchsian", "hessian"): ("covolume Hessian at h", (), _fuchsian_hessian),
    ("fuchsian", "area-form"): (
        "total face area as a quadratic form", (),
        _area_form_report("fuchsian_area_form", "area")),
    ("fuchsian", "check-pd"): ("assert positive definiteness", ("tol",), _fuchsian_check_pd),
    ("fuchsian", "distance"): (
        "spherical distance between supports", ("required k",), _fuchsian_distance),
}


# =============================================================================
# PARSER AND DISPATCH
# =============================================================================

def build_parser(families):
    """The parser with the operations of ``families`` only.  argparse enters a family's
    parser only when argv names it, so ``main`` passes the families its argv names and
    gets the usage, help and error texts of the parser with every family (``LOADERS``)."""
    parser = _Parser(prog="mixedform",
                     description="deformation forms of polygons, polytopes, "
                                 "and their Fuchsian quotients")
    parser.add_argument("--version", action="version", version=f"mixedform {__version__}")
    top = parser.add_subparsers(dest="family", required=True, metavar="FAMILY")
    ops = {}
    for family, (text, _) in LOADERS.items():
        family_parser = top.add_parser(family, help=text)
        if family in families:
            ops[family] = family_parser.add_subparsers(dest="op", required=True, metavar="OP")
    for (family, op), (text, options, _) in COMMANDS.items():
        if family not in ops:
            continue
        sp = ops[family].add_parser(op, help=text)
        sp.add_argument("file", help="input JSON file")
        sp.add_argument("--json", action="store_true", help="machine-readable report")
        for option in options:
            for flag, keywords in OPTIONS[option]:
                sp.add_argument(flag, **keywords)
        sp.set_defaults(usage_error=sp.error)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser([family for family in LOADERS if family in argv])
    try:
        args = parser.parse_args(argv)
        for flag in ("samples", "seed"):
            if getattr(args, flag, 0) < 0:
                args.usage_error(f"argument --{flag}: must not be negative, "
                                 f"got {getattr(args, flag)}")
        if getattr(args, "p", None) is not None and args.k is None:
            args.usage_error("argument --p: only allowed together with --k")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    # as ``from . import <family>``, which ``-X importtime`` reports (import_module is not)
    lib = getattr(__import__(__package__, fromlist=[args.family]), args.family)
    start = time.perf_counter()
    try:
        data, digest = _load_json(args.file)
        try:
            fan, h = LOADERS[args.family][1](lib, data)
        except (TypeError, ValueError) as exc:      # a JSON value of the wrong type
            raise InvalidInput(f"{args.file}: wrongly typed value: {exc}") from exc
        results, tolerances, lines = COMMANDS[args.family, args.op][2](lib, args, fan, h)
        elapsed = time.perf_counter() - start
        report = {
            "schema": 1,
            "command": f"{args.family} {args.op}",
            "input": {"path": args.file, "sha256": digest},
            "results": results,
            "tolerances": tolerances,
        }
        if getattr(args, "samples", 0) and args.k is None:      # random pairs were drawn
            report["seed"] = args.seed
        try:        # in both output modes: no report holds Infinity or NaN
            text = json.dumps(report, indent=2 if args.json else None, sort_keys=True,
                              allow_nan=False)
        except ValueError as exc:
            raise DomainError("the report holds a non-finite number: a result "
                              "overflows the floating-point range") from exc
    except InvariantFalsified as exc:
        print(f"mixedform: invariant falsified: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except MixedFormError as exc:
        print(f"mixedform: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(text if args.json else "\n".join([*lines, f"wall time: {elapsed:.3f}s"]))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
