"""The process entry point: ``python -m mixedform`` and the ``mixedform`` script.

``run`` calls ``cli.main`` and then hands every object the collector tracks
to ``gc.freeze``, so the interpreter's final collections at exit have
nothing left to walk; the OS takes the memory back with the process.  The
rest of the normal shutdown (atexit handlers, the flush of the standard
streams, module teardown) still runs.  ``cli.main`` itself freezes nothing:
it is also called in process, where a freeze would pin the caller's heap.
"""

import gc
import os
import sys

from .cli import EXIT_CLOSED, main


def run():
    """Run the CLI on ``sys.argv`` and return its exit code.

    A reader that closes stdout before the report is written (``| head``)
    gets exit code ``EXIT_CLOSED`` and no traceback.
    """
    try:
        code = main()
        sys.stdout.flush()      # inside the try: a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # the shutdown flush writes what is still buffered to devnull instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_CLOSED
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
