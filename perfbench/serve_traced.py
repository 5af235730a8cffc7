"""Start the HTTP front door with the span recorder installed.

    python3 perfbench/serve_traced.py --spans <out.json> <python -m repro.serving args>

Installs the same wrappers as the in-process traced run, plus the
request handler and the response encode, then calls
``repro.serving.__main__.main``. When the server stops (SIGTERM), the
spans and counters are written to ``--spans``. A request carrying an
``X-Perfbench-Op`` header files its spans under that operation id.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder, install  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, server_args = argv[1], argv[2:]
    recorder = Recorder()
    install(recorder, server=True)
    from repro.serving.__main__ import main as serve

    try:
        return serve(server_args)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
