"""Traced `mcfifo` command: installs the span wrappers, runs the CLI, and
writes the spans with the instant `main` started to a JSON file.

Usage: python3 -X importtime perfbench/cli_child.py <spans.json> <mcfifo args...>
"""

import json
import sys

from spans import Tracer, clock, span_to_dict

import mcfifo.cli  # noqa: E402  (after spans: the tracer must not time itself)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    main_start = clock()
    try:
        return mcfifo.cli.main(argv)
    finally:
        main_end = clock()
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "main_start": main_start,
                    "main_end": main_end,
                    "spans": [span_to_dict(s) for s in tracer.take()],
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
