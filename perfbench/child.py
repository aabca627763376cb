"""One benchmark job in a fresh interpreter.

usage: python3 perfbench/child.py RESULT_FILE TRACE [CLI ARGS...]

The child imports ``hurwitz.cli``, notes the time, runs ``cli.run`` on the
CLI arguments and notes the time again once the report is flushed to stdout.
With no CLI arguments it only imports (a set-up probe).  With TRACE=1 the
run happens inside a ``tracing.Tracer``.  Timings (on the system-wide
monotonic clock the parent also reads), the exit code, peak RSS and any spans
and counters go to RESULT_FILE as JSON; stdout carries only the report.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import hurwitz.cli as cli

    record = {"ready": time.perf_counter(), "module": cli.__file__, "rc": 0}
    if argv:
        if trace:
            from tracing import Tracer

            with Tracer() as tracer:
                record["rc"] = cli.run(argv)
            record["spans"] = tracer.spans
            record["counters"] = dict(tracer.counters)
        else:
            record["rc"] = cli.run(argv)
        sys.stdout.flush()
        record["end"] = time.perf_counter()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main())
