"""Run one quasidyn CLI job in this (fresh) process and record what it cost.

    python3 bench/job.py RECORD_PATH TRACE JOB_ID -- CLI_ARGS...

The parent (bench/run.py) notes the monotonic clock just before it starts
this process; ``t_entry`` below is the moment the CLI command begins, after
the interpreter has started and ``quasidyn.cli`` is imported, so the parent
gets set-up wall time as ``t_entry - spawn`` and command wall time as
``t_exit - t_entry``.  ``setup_cpu_s`` is the process's user+sys CPU up to
``t_entry``, ``cpu_s`` its CPU over the command, and the peak RSS is the
process's high-water mark at exit.  With
TRACE=1 the layer functions are wrapped first (bench/tracer.py) and the
spans go into the record.  The record is JSON, written when the job ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def main(argv: list[str]) -> int:
    record_path, trace, job_id = argv[0], argv[1] == "1", argv[2]
    cli_args = argv[argv.index("--") + 1:]
    from quasidyn import cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(job_id, clock=time.monotonic)
        tracer.install()
    crash = None
    cpu0 = _cpu_seconds()
    t_entry = time.monotonic()
    try:
        cli.main.main(args=cli_args, prog_name="quasidyn", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = _exit_code(exc)
    except Exception:  # a crash is a failed job, recorded with its traceback
        code = None
        crash = traceback.format_exc()
    t_exit = time.monotonic()
    cpu1 = _cpu_seconds()
    sys.stdout.flush()
    sys.stderr.flush()
    record = {
        "job": job_id,
        "exit_code": code,
        "crash": crash,
        "t_entry": t_entry,
        "t_exit": t_exit,
        "cpu_s": cpu1 - cpu0,
        "setup_cpu_s": cpu0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
    }
    tmp = record_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(record, fh)
    os.replace(tmp, record_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
