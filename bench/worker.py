"""One round of a workload in a fresh process: `python3 bench/worker.py JOB RESULT`.

JOB is a JSON file listing the commands as (kind, argv for
`masslearn.cli.main`, set-up only) and whether to trace; RESULT receives this
process's timings, in CPU seconds (see spans.py).  The package is imported
first and that import is timed.  Each command runs through the shipped entry
point with the argv a user would type; its stdout and stderr
are captured so that the exit code and an empty stderr can be checked.

A set-up-only command stops at its first optimizer step or first scored
sample, so only its set-up runs.
"""

from time import process_time as clock

T0 = clock()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import masslearn.cli  # noqa: E402  (loads every module the hooks patch)
import masslearn  # noqa: E402

IMPORT_S = clock() - T0

from spans import Boundaries, SetupReached, Tracer  # noqa: E402


def run_command(kind: str, argv: list, setup_only: bool, bounds: Boundaries,
                tracer: Tracer | None) -> dict:
    bounds.reset(setup_only)
    if tracer is not None:
        tracer.phase = kind
    out, err = io.StringIO(), io.StringIO()
    rc, raised = None, None
    t_start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = masslearn.cli.main(argv)
    except SetupReached:
        pass
    except Exception as e:  # recorded as a failed command, not a crash of the round
        raised = f"{type(e).__name__}: {e}"
    t_end = clock()
    return {"kind": kind, "setup_only": setup_only, "rc": rc, "raised": raised,
            "stderr": err.getvalue(), "start": t_start, "first_work": bounds.first_work,
            "end": t_end, "loss_start": list(bounds.loss_start), "loss_s": list(bounds.loss_s),
            "dataset_s": bounds.dataset_s, "checkpoint_load_s": bounds.checkpoint_load_s}


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    bounds = Boundaries()
    bounds.install(masslearn)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install(masslearn)
    commands = [run_command(kind, argv, setup_only, bounds, tracer)
                for kind, argv, setup_only in job["commands"]]
    result = {
        "import_s": IMPORT_S,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": os_threads(),
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
