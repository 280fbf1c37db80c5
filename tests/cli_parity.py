"""Output parity dump of the CLI: compare two trees call by call.

Runs every ``GOLDEN_CASES`` entry of ``test_cli`` at the scales 2^0,
2^+-40, 2^+-150 and 2^+-700, with and without ``--json``, and the usage,
help and error command lines of ``USAGE_ARGV``, through ``cli.main`` in
this process, and prints one JSON object (keys sorted): per
call, its exit code, its stdout without the wall-time line, and its stderr.
The temporary input directory reads as ``$INPUTS``, and a numpy warning as
``<category>: <message>`` without its source line, which moves with any
edit.  ``--fixtures WORKLOAD:SEED`` (repeatable) adds the calls of that
benchmark manifest (``perfbench/fixtures.write_fixtures``) and the sha256 of
every fixture it writes, so a manifest without calls (``sampling:SEED``)
still pins its inputs.  ``--draws`` adds the sha256 of seeded in-process
draws (``draw_hashes``), so a sampler change shows its parity as a CLI
change does, and ``--checks`` the sha256 of seeded in-process pair results
that the CLI never prints (``check_hashes``), and ``--meshes`` one sha256 each
of the cone angles, the total areas and the outcome of every flip of seeded
meshes at several scales (``mesh_hashes``), and ``--quadrature`` one sha256 per
seeded fan of ``polytope.area_via_sphere_integral`` at depths 0-6 and several
scales (``quadrature_hashes``).  The sha256 of the dump goes
to stderr, so one hash quotes a byte-identical run.  Pytest does not
collect this file.  To compare a change against its parent checkout (the
copy makes the parent's own ``tests`` and ``perfbench`` write the parent's
fixtures):

    PYTHONPATH=src python tests/cli_parity.py --fixtures cli-small:1 > new.json
    cp tests/cli_parity.py PARENT/tests/
    (cd PARENT && PYTHONPATH=src python tests/cli_parity.py --fixtures cli-small:1) > old.json
    diff old.json new.json

Give both runs the same options (``--draws`` or ``--checks`` too, for a sampler
or a pair-check change, ``--meshes`` for a surface change, ``--quadrature`` for a
sphere-quadrature change).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from functools import partial

import numpy as np

import geomfix
from mixedform import cli, fuchsian, polygon, polytope, surface
from mixedform.errors import DomainError, MixedFormError
from test_cli import (GOLDEN_CASES, USAGE_ARGV, _case_id, golden_argv, usage_argv,
                      write_golden_inputs)
from test_polygon import DEFECT_E_ANGLES

EXPONENTS = (0, 40, -40, 150, -150, 700, -700)
#: each sampler's draws: at seeds 0..DRAW_SEEDS-1, DRAW_SIZES in turn (None: one draw)
DRAW_SEEDS = 100
DRAW_SIZES = 10 * [None] + [5]
#: each pair check's pairs: at seeds 0..CHECK_SEEDS-1, CHECK_PAIRS pairs scaled by 2^e for
#: each e of EXPONENTS, checked one by one (and the inequality checks as one stack)
CHECK_SEEDS = 10
CHECK_PAIRS = 6
#: the scales 2^e of the meshes that ``mesh_hashes`` hashes
MESH_EXPONENTS = (0, 150, -150, 700, -700)
#: the depths and the scales 2^e of the support vectors that ``quadrature_hashes`` integrates
QUADRATURE_DEPTHS = range(7)
QUADRATURE_EXPONENTS = (0, 150, -150)
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _call(argv, directory):
    """(exit code, stdout without the wall-time line, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # a fresh filter state shows every warning once per call, as a fresh process would
        warnings.simplefilter("default")
        try:
            code = cli.main(argv)
        except Exception as exc:        # a traceback in a fresh process
            code = f"raised {type(exc).__name__}: {exc}"
    stdout = "".join(line for line in out.getvalue().splitlines(keepends=True)
                     if not line.startswith("wall time: "))
    return {"exit": code, "stdout": stdout.replace(directory, "$INPUTS"),
            "stderr": err.getvalue().replace(directory, "$INPUTS")}


def golden_calls(directory):
    """{key: argv} for every golden case at every scale, in both output modes,
    and for every usage command line on the unscaled inputs."""
    calls = {}
    for exponent in EXPONENTS:
        where = os.path.join(directory, f"2^{exponent}")
        os.makedirs(where)
        inputs = write_golden_inputs(where, exponent)
        for case in GOLDEN_CASES:
            argv = golden_argv(inputs, case, exponent)
            calls[f"2^{exponent} {_case_id(case)}"] = argv
            calls[f"2^{exponent} {_case_id(case)} --json"] = argv + ["--json"]
        if exponent == 0:
            for argv in USAGE_ARGV:
                calls[f"usage {' '.join(argv)}"] = usage_argv(inputs, argv)
    return calls


def write_manifest(directory, workload, seed):
    """The manifest of one benchmark workload at ``seed``, its inputs written under
    ``directory``."""
    sys.path.insert(0, PERFBENCH)
    import fixtures     # perfbench's own module; it needs scipy and tests/geomfix.py

    return fixtures.write_fixtures(workload, seed, os.path.join(directory, f"{workload}-{seed}"))


def fixture_manifest(directory, workload, seed):
    """({key: argv} for the calls of one benchmark manifest, {key: sha256} for its
    fixtures), inputs under ``directory``."""
    manifest = write_manifest(directory, workload, seed)
    return ({f"{workload}:{seed} {' '.join(call['argv'])}": call["argv"]
             for call in manifest["calls"]},
            {f"{workload}:{seed} fixture {name}": fixture["sha256"]
             for name, fixture in manifest["fixtures"].items()})


def _draws_digest(sample):
    """sha256 over the draws of ``sample(rng, size)`` for every seed and size (a
    DomainError as its message) and each seed's next standard normal, the stream
    position."""
    digest = hashlib.sha256()
    for seed in range(DRAW_SEEDS):
        rng = np.random.default_rng(seed)
        for size in DRAW_SIZES:
            try:
                digest.update(sample(rng, size).tobytes())
            except DomainError as exc:
                digest.update(str(exc).encode())
        digest.update(rng.standard_normal(1).tobytes())
    return digest.hexdigest()


def draw_hashes(directory):
    """{key: sha256} of the seeded draws of ``polygon.sample_interior`` about base 1 on
    regular, perturbed and defect E's fans, and of ``polytope.sample_interior`` about
    the cube and the fib48 fixture of the sampling:1 manifest (written under
    ``directory``)."""
    fans = {f"regular {n}": polygon.NormalFan2D.regular(n) for n in (3, 4, 5, 12, 48, 100)}
    fans.update({f"perturbed {n}": geomfix.perturbed_polygon_fan(n, np.random.default_rng(n))
                 for n in (4, 6, 12, 24, 48, 96)})
    fans["defect E"] = polygon.NormalFan2D(DEFECT_E_ANGLES)
    samplers = {f"draws polygon {name}": partial(polygon.sample_interior, fan)
                for name, fan in fans.items()}
    with open(write_manifest(directory, "sampling", 1)["fixtures"]["fib48"]["path"]) as fh:
        fib48, fib48_h = polytope.fan_from_json_dict(json.load(fh))
    cube = polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6))
    for name, fan, h in (("fib48", fib48, fib48_h), ("cube", cube, np.ones(6))):
        samplers[f"draws polytope {name}"] = partial(polytope.sample_interior, fan, h)
    return {key: _draws_digest(sample) for key, sample in samplers.items()}


def _result_bytes(result):
    """The bytes of a check's result: each field of a tuple (None as such) or the array."""
    fields = result if isinstance(result, tuple) else (result,)
    return b"".join(b"None" if x is None else np.asarray(x).tobytes() for x in fields)


def _checks_digest(check, pairs, stacks):
    """sha256 over ``check(h, k)`` for each seed's rows (H, K) of ``pairs(rng)`` at every
    scale 2^e, pair by pair and (with ``stacks``) then as one stack: each result's
    bytes, or the class and message of what it raises."""
    digest = hashlib.sha256()
    for seed in range(CHECK_SEEDS):
        H, K = pairs(np.random.default_rng(seed))
        for exponent in EXPONENTS:
            scaled = np.ldexp(H, exponent), np.ldexp(K, exponent)
            for h, k in [*zip(*scaled)] + [scaled] * stacks:
                try:
                    digest.update(_result_bytes(check(h, k)))
                except MixedFormError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}".encode())
    return digest.hexdigest()


def _drawn_pairs(sample):
    """(H, K) of CHECK_PAIRS pairs from the stack ``sample(rng, size)``: pair 1 a homothety
    pair k = 2 h, and at about every other seed pair 2's k negated (outside the cone)."""
    def pairs(rng):
        rows = sample(rng, 2 * CHECK_PAIRS)
        H, K = rows[0::2], rows[1::2].copy()
        K[1] = 2.0 * H[1]
        if rng.random() < 0.5:
            K[2] = -K[2]
        return H, K
    return pairs


def check_hashes(directory):
    """{key: sha256} of seeded ``polygon.minkowski_check`` results on the sampling:1
    12-gon, a perturbed 48-gon and defect E's fan, of ``polytope.alexandrov_fenchel_check``
    (p the reference) on the cube and the sampling:1 fib48, and of
    ``fuchsian.spherical_distance`` and the ``covolume_hessian`` entries on the
    sampling:1 genus-2 m = 14 fan and its pool (manifest written under ``directory``)."""
    manifest = write_manifest(directory, "sampling", 1)

    def load(name):
        with open(manifest["fixtures"][name]["path"]) as fh:
            return json.load(fh)

    fans = {"sampling:1 polygon12": polygon.PolygonSupport.from_json_dict(load("polygon12")).fan,
            "perturbed 48": geomfix.perturbed_polygon_fan(48, np.random.default_rng(48)),
            "defect E": polygon.NormalFan2D(DEFECT_E_ANGLES)}
    checks = {f"checks minkowski {name}": (partial(polygon.minkowski_check, fan), _drawn_pairs(
        partial(polygon.sample_interior, fan)), True) for name, fan in fans.items()}
    fib48, fib48_h = polytope.fan_from_json_dict(load("fib48"))
    cube = polytope.build_fan(geomfix.CUBE_NORMALS, np.ones(6))
    for name, fan, h in (("sampling:1 fib48", fib48, fib48_h), ("cube", cube, np.ones(6))):
        checks[f"checks alexandrov-fenchel {name}"] = (
            partial(polytope.alexandrov_fenchel_check, fan, p=h),
            _drawn_pairs(partial(polytope.sample_interior, fan, h)), True)
    qfan, _ = fuchsian.fan_from_json_dict(load("genus2_m14"))
    pool = np.array(load("genus2_m14_pool")["vectors"])

    def pool_pairs(rng):
        return pool[rng.integers(len(pool), size=(2, CHECK_PAIRS))]

    def hessian(h, k):
        return fuchsian.covolume_hessian(qfan, h).entries

    checks["checks spherical-distance sampling:1 genus2_m14"] = (
        partial(fuchsian.spherical_distance, qfan), pool_pairs, False)
    checks["checks covolume-hessian sampling:1 genus2_m14"] = (hessian, pool_pairs, False)
    return {key: _checks_digest(*check) for key, check in checks.items()}


def parity_meshes():
    """{name: mesh}: Fibonacci m = 12 and 48 boundary metrics (normals jittered by 0.02 at
    seed m), the genus-2 octagon, doubled regular 5-, 6- and 12-gons and a doubled
    perturbed 7-gon (seed 7), all with h = 1."""
    meshes = {}
    for m in (12, 48):
        normals = geomfix.fibonacci_sphere(m, np.random.default_rng(m), jitter=0.02)
        meshes[f"fibonacci {m}"] = polytope.boundary_metric(
            polytope.build_fan(normals, np.ones(m)), np.ones(m))
    meshes["genus2 octagon"] = geomfix.genus2_octagon_mesh()
    fans = {f"regular {n}": polygon.NormalFan2D.regular(n) for n in (5, 6, 12)}
    fans["perturbed 7"] = geomfix.perturbed_polygon_fan(7, np.random.default_rng(7))
    for name, fan in fans.items():
        meshes[f"doubled {name}"] = geomfix.doubled_polygon_mesh(fan, np.ones(fan.n))
    return meshes


def _outcome_bytes(compute, *args):
    """The bytes of ``compute(*args)``, or the class name of the MixedFormError it raises."""
    try:
        return np.asarray(compute(*args)).tobytes()
    except MixedFormError as exc:
        return type(exc).__name__.encode()


def _cone_angles(mesh):
    return surface.cone_data(mesh).cone_angles


def _flipped_lengths(mesh, slot):
    return surface.flip(mesh, slot).lengths


def mesh_hashes():
    """{key: sha256} of the cone angles, of the total areas and of every slot's flip
    outcome (the new lengths, or the error class) of ``parity_meshes`` at each scale 2^e
    of MESH_EXPONENTS."""
    digests = {key: hashlib.sha256() for key in ("cone angles", "total areas", "flips")}
    for base in parity_meshes().values():
        gluing = base.to_json_dict()["gluing"]
        for exponent in MESH_EXPONENTS:
            mesh = surface.TriangleMesh(np.ldexp(base.lengths, exponent), gluing)
            digests["cone angles"].update(_outcome_bytes(_cone_angles, mesh))
            digests["total areas"].update(_outcome_bytes(surface.total_area, mesh))
            for slot in sorted(mesh.sigma):
                digests["flips"].update(_outcome_bytes(_flipped_lengths, mesh, slot))
    return {f"meshes {key}": digest.hexdigest() for key, digest in digests.items()}


def quadrature_fans():
    """{name: (fan, h)}: the box h = (1, 1, 2, 2, 3, 3), the regular octahedron, random
    simple polytopes with m = 10 and 30 (seed m) and Fibonacci m = 48 and 96 fans with
    normals jittered by 0.05 at seed m and h = 1."""
    fans = {"box": (geomfix.CUBE_NORMALS, np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])),
            "octahedron": (geomfix.OCTAHEDRON_NORMALS, np.full(8, 1.0 / np.sqrt(3.0)))}
    for m in (10, 30):
        fan, h = geomfix.random_simple_polytope(m, np.random.default_rng(m))
        fans[f"random simple {m}"] = (fan.normals, h)
    for m in (48, 96):
        fans[f"fibonacci {m}"] = (geomfix.fibonacci_sphere(m, np.random.default_rng(m),
                                                           jitter=0.05), np.ones(m))
    return {name: (polytope.build_fan(normals, h), h) for name, (normals, h) in fans.items()}


def quadrature_hashes():
    """{key: sha256} per ``quadrature_fans`` fan of the ``repr`` of each
    ``area_via_sphere_integral`` value (or the class name of the MixedFormError it
    raises) at each depth of QUADRATURE_DEPTHS and scale 2^e of QUADRATURE_EXPONENTS."""
    hashes = {}
    for name, (fan, h) in quadrature_fans().items():
        digest = hashlib.sha256()
        for depth in QUADRATURE_DEPTHS:
            for exponent in QUADRATURE_EXPONENTS:
                try:
                    value = repr(polytope.area_via_sphere_integral(fan, np.ldexp(h, exponent),
                                                                   depth))
                except MixedFormError as exc:
                    value = type(exc).__name__
                digest.update(value.encode() + b"\n")
        hashes[f"quadrature {name}"] = digest.hexdigest()
    return hashes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", action="append", default=[], metavar="WORKLOAD:SEED",
                        help="also run the calls of this benchmark manifest")
    parser.add_argument("--draws", action="store_true",
                        help="also hash seeded polygon and polytope sampler draws")
    parser.add_argument("--checks", action="store_true",
                        help="also hash seeded Minkowski, Alexandrov-Fenchel and Fuchsian "
                             "pair results")
    parser.add_argument("--meshes", action="store_true",
                        help="also hash cone angles, total areas and flip outcomes of seeded "
                             "meshes")
    parser.add_argument("--quadrature", action="store_true",
                        help="also hash sphere-quadrature areas of seeded fans")
    args = parser.parse_args(argv)
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    with tempfile.TemporaryDirectory() as directory:
        calls, hashes = golden_calls(directory), {}
        for spec in args.fixtures:
            workload, seed = spec.split(":")
            more_calls, more_hashes = fixture_manifest(directory, workload, int(seed))
            calls.update(more_calls)
            hashes.update(more_hashes)
        if args.draws:
            hashes.update(draw_hashes(directory))
        if args.checks:
            hashes.update(check_hashes(directory))
        if args.meshes:
            hashes.update(mesh_hashes())
        if args.quadrature:
            hashes.update(quadrature_hashes())
        dump = {key.replace(directory, "$INPUTS"): _call(argv, directory)
                for key, argv in calls.items()}
        dump.update(hashes)
    text = json.dumps(dump, indent=1, sort_keys=True) + "\n"
    sys.stdout.write(text)
    print("sha256", hashlib.sha256(text.encode()).hexdigest(), file=sys.stderr)


if __name__ == "__main__":
    main()
