"""Run one owssl CLI command with its layer boundaries traced.

Usage: python perfbench/tracecli.py SPANS_JSON <owssl arguments...>

Imports owssl.cli, installs the tracer, runs `owssl.cli.main` on the given
arguments and writes the spans and counters to SPANS_JSON. The exit code is
the command's own.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out = Path(sys.argv[1])
    import owssl.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = owssl.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        out.write_text(json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
