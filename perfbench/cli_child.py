"""Traced child of the cli-run workload.

    python perfbench/cli_child.py TOTALS_FILE dnadecide-arguments...

Installs the tracing wrappers, runs ``dnadecide.cli.main`` on the
arguments as the ``dnadecide`` command would, writes the span totals to
TOTALS_FILE as JSON and exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

from dnadecide import cli
from tracing import Tracer


def main() -> int:
    totals_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    tracer.end_job()
    Path(totals_file).write_text(json.dumps(tracer.totals()))
    return code


if __name__ == "__main__":
    sys.exit(main())
