"""Run one kinverify CLI command with the span tracer installed.

Usage: python perfbench/cli_child.py SPANS_OUT <kinverify arguments...>

Behaves like ``python -m kinverify.cli <arguments>`` (same output, same exit
code) and additionally writes the spans it recorded to SPANS_OUT as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kinverify.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        code = kinverify.cli.main(argv)
    Path(spans_out).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
