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
still pins its inputs.  The sha256 of the dump goes to stderr, so one hash
quotes a byte-identical run.  Pytest does not collect this file.  To compare a
change against its parent checkout (the copy makes the parent's own
``tests`` and ``perfbench`` write the parent's fixtures):

    PYTHONPATH=src python tests/cli_parity.py --fixtures cli-small:1 > new.json
    cp tests/cli_parity.py PARENT/tests/
    (cd PARENT && PYTHONPATH=src python tests/cli_parity.py --fixtures cli-small:1) > old.json
    diff old.json new.json
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

from mixedform import cli
from test_cli import (GOLDEN_CASES, USAGE_ARGV, _case_id, golden_argv, usage_argv,
                      write_golden_inputs)

EXPONENTS = (0, 40, -40, 150, -150, 700, -700)
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


def fixture_manifest(directory, workload, seed):
    """({key: argv} for the calls of one benchmark manifest, {key: sha256} for its
    fixtures), inputs under ``directory``."""
    sys.path.insert(0, PERFBENCH)
    import fixtures     # perfbench's own module; it needs scipy and tests/geomfix.py

    manifest = fixtures.write_fixtures(workload, seed,
                                       os.path.join(directory, f"{workload}-{seed}"))
    return ({f"{workload}:{seed} {' '.join(call['argv'])}": call["argv"]
             for call in manifest["calls"]},
            {f"{workload}:{seed} fixture {name}": fixture["sha256"]
             for name, fixture in manifest["fixtures"].items()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixtures", action="append", default=[], metavar="WORKLOAD:SEED",
                        help="also run the calls of this benchmark manifest")
    args = parser.parse_args(argv)
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    with tempfile.TemporaryDirectory() as directory:
        calls, hashes = golden_calls(directory), {}
        for spec in args.fixtures:
            workload, seed = spec.split(":")
            more_calls, more_hashes = fixture_manifest(directory, workload, int(seed))
            calls.update(more_calls)
            hashes.update(more_hashes)
        dump = {key.replace(directory, "$INPUTS"): _call(argv, directory)
                for key, argv in calls.items()}
        dump.update(hashes)
    text = json.dumps(dump, indent=1, sort_keys=True) + "\n"
    sys.stdout.write(text)
    print("sha256", hashlib.sha256(text.encode()).hexdigest(), file=sys.stderr)


if __name__ == "__main__":
    main()
