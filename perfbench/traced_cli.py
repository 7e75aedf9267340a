"""Run one haarq CLI command with a timing span around each layer.

Usage: python3 perfbench/traced_cli.py SPANS.json -- <haarq cli arguments>

Times `import haarq.cli` in this fresh interpreter, wraps the functions
listed in layers.LAYERS, calls haarq.cli.main(argv), then writes the spans
as JSON and exits with main's exit code.
"""

import importlib
import json
import sys
import time
from dataclasses import asdict

from layers import LAYERS, MAIN
from spans import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("haarq.cli")
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    missing = []
    for name, module, attr, path_arg, _ in LAYERS:
        mod = importlib.import_module(module)
        if hasattr(mod, attr):
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), path_arg))
        else:
            missing.append(f"{module}.{attr}")
    try:
        return tracer.wrap(MAIN, cli.main)(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "missing": missing,
                       "spans": [asdict(s) for s in tracer.spans]}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
