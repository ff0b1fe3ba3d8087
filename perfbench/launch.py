"""Run one ``optbench`` command the way its console script does, and record
when set-up ended.

    python3 perfbench/launch.py MARKS MODE TRACE optbench-arguments...

MODE is ``run`` (run the command), ``probe`` (stop as soon as the
arguments are parsed) or ``trace`` (wrap the functions named in
``layer_map.json`` and write their spans to TRACE once the command ends).
MARKS receives a JSON object with the ``time.monotonic()`` at which the
arguments were parsed and the process's peak resident memory. Exits with
the command's own exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

LAYER_MAP = Path(__file__).resolve().parent / "layer_map.json"


class _SetupDone(Exception):
    """Raised from the parser in probe mode to stop before the command runs."""


def main(argv: list[str]) -> int:
    marks_path, mode, trace_path, cli_args = argv[0], argv[1], argv[2], argv[3:]
    marks: dict = {}
    tracer = None
    try:
        import optbench.cli as cli

        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(json.loads(LAYER_MAP.read_text()))
        real_build_parser = cli.build_parser

        def build_parser():
            parser = real_build_parser()
            real_parse_args = parser.parse_args

            def parse_args(args=None, namespace=None):
                parsed = real_parse_args(args, namespace)
                marks["parsed"] = time.monotonic()
                if mode == "probe":
                    raise _SetupDone
                return parsed

            parser.parse_args = parse_args
            return parser

        cli.build_parser = build_parser
        try:
            return cli.main(cli_args)
        except _SetupDone:
            return 0
    finally:
        marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        Path(marks_path).write_text(json.dumps(marks))
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
