"""Run the ionotto CLI in this process with every layer boundary traced.

Usage: python3 bench/traced_cli.py SPANS_JSON CLI_ARG...

Times ``import ionotto`` (including the CLI module), installs the span
recorder, calls ``ionotto.cli.main`` with the remaining arguments and
writes the import time and spans to SPANS_JSON.  Exits with the CLI's
exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    start = time.perf_counter()
    import ionotto
    import ionotto.cli

    import_s = time.perf_counter() - start
    import tracing

    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        code = ionotto.cli.main(argv[1:])
    spans_path.write_text(
        json.dumps({"import_s": import_s, "spans": [s.to_json() for s in recorder.spans]}),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
