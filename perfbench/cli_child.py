"""A traced ``pcimpute`` command-line process.

Usage: ``python cli_child.py SPANS.json <pcimpute arguments>``.  Times
the import of ``pcimpute.cli`` as the span ``cli.import``, runs the
command with every pcimpute function traced, writes the spans as JSON
to SPANS.json and exits with the command's status.
"""

import json
import sys
import time

start = time.perf_counter()
import pcimpute.cli  # noqa: E402

imported = time.perf_counter()

from tracing import Span, Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.spans.append(Span("cli.import", None, start, imported))
    tracer.install()
    try:
        return pcimpute.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main())
