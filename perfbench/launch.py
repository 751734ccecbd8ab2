"""Run one dqsim command in this fresh interpreter, as the ``dqsim`` script does.

    python3 launch.py RECORD [--trace] [--probe] -- ARG...

Imports ``dqsim.cli`` and calls ``main(ARG...)``; the exit status, stdout and
stderr (a traceback included) are the command's own.  Whatever happens, it
writes RECORD, a JSON object with the CLOCK_MONOTONIC stamp taken when the
import finished and the seconds spent building the argument parser.  The
parent process stamps the spawn on the same clock, so start-up is
``imported - spawned + parser_s``.

``--trace`` installs the span tracer between the import and the command,
outside the start-up figure, and adds its report to RECORD.  ``--probe``
stops after building the parser.
"""

import sys
import time


def main() -> int:
    record_path = sys.argv[1]
    sep = sys.argv.index("--")
    flags, argv = sys.argv[2:sep], sys.argv[sep + 1 :]
    rec: dict = {}
    import dqsim.cli as cli

    rec["imported"] = time.monotonic()
    tracer = None
    if "--trace" in flags:
        import spans  # perfbench/spans.py: this script's directory leads sys.path

        tracer = spans.install()
    build = cli.build_parser

    def timed_build():
        t0 = time.monotonic()
        parser = build()
        rec["parser_s"] = time.monotonic() - t0
        return parser

    cli.build_parser = timed_build
    try:
        if "--probe" in flags:
            cli.build_parser()
            return 0
        return cli.main(argv)
    finally:
        import json
        import resource

        rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            rec["trace"] = tracer.report()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh)


if __name__ == "__main__":
    raise SystemExit(main())
