"""One traced ``mixedform`` CLI call.

    python3 perfbench/traced_cli.py SPANS_OUT CLI_ARG...

Times ``import mixedform.cli``, wraps the public functions (see
``tracer.py``), runs ``cli.main`` on the remaining arguments under a
``cli.main`` span and writes the spans to SPANS_OUT before exiting with the
CLI's exit code.
"""

import sys
import time


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import mixedform.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.wrap("cli.main", mixedform.cli.main)(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_out, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
