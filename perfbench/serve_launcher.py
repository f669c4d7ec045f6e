"""Start the ``mips-serve`` gateway with the benchmark's spans installed.

    python3 perfbench/serve_launcher.py SPANS.json serve --port 0 --cache DIR

Installs the same wrappers as an in-process traced run, then calls the
``mips-serve`` entry point with the remaining arguments.  When the
gateway shuts down (SIGINT), the recorded spans and counts are written
to ``SPANS.json``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import serve_main

    try:
        return serve_main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as handle:
            json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main())
