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
change does.  The sha256 of the dump goes to stderr, so one hash quotes a
byte-identical run.  Pytest does not collect this file.  To compare a
change against its parent checkout (the copy makes the parent's own
``tests`` and ``perfbench`` write the parent's fixtures):

    PYTHONPATH=src python tests/cli_parity.py --fixtures cli-small:1 > new.json
    cp tests/cli_parity.py PARENT/tests/
    (cd PARENT && PYTHONPATH=src python tests/cli_parity.py --fixtures cli-small:1) > old.json
    diff old.json new.json

Give both runs the same options (``--draws`` too, for a sampler change).
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
from mixedform import cli, polygon, polytope
from mixedform.errors import DomainError
from test_cli import (GOLDEN_CASES, USAGE_ARGV, _case_id, golden_argv, usage_argv,
                      write_golden_inputs)
from test_polygon import DEFECT_E_ANGLES

EXPONENTS = (0, 40, -40, 150, -150, 700, -700)
#: each sampler's draws: at seeds 0..DRAW_SEEDS-1, DRAW_SIZES in turn (None: one draw)
DRAW_SEEDS = 100
DRAW_SIZES = 10 * [None] + [5]
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", action="append", default=[], metavar="WORKLOAD:SEED",
                        help="also run the calls of this benchmark manifest")
    parser.add_argument("--draws", action="store_true",
                        help="also hash seeded polygon and polytope sampler draws")
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
        dump = {key.replace(directory, "$INPUTS"): _call(argv, directory)
                for key, argv in calls.items()}
        dump.update(hashes)
    text = json.dumps(dump, indent=1, sort_keys=True) + "\n"
    sys.stdout.write(text)
    print("sha256", hashlib.sha256(text.encode()).hexdigest(), file=sys.stderr)


if __name__ == "__main__":
    main()
