"""The served instance: ``repro``'s sensing service in its own process.

Run as ``python3 perfbench/ledger/serve_target.py --socket PATH
--workers N --ready-file PATH [--span-dir DIR]``.  With ``--span-dir``
the layer wrappers are installed before the worker pool exists, so the
forked workers carry them; each worker appends its spans to the
directory after every request and this process appends its own (the
wire encoding on the event loop) when the server has drained.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ledger.common import require_source  # noqa: E402


def _drain_when_orphaned(parent: int) -> None:
    """Drain (SIGTERM) if the benchmark process that started us is gone."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGTERM)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--span-dir", default=None)
    args = parser.parse_args()
    require_source()

    from ledger import tracing

    if args.span_dir:
        os.environ[tracing.SPAN_DIR_ENV] = args.span_dir
        tracing.install(served=True)

    from repro.service.server import serve_blocking

    threading.Thread(
        target=_drain_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()

    def ready(server) -> None:
        tmp = args.ready_file + ".tmp"
        Path(tmp).write_text(str(os.getpid()))
        os.replace(tmp, args.ready_file)

    serve_blocking(
        socket_path=args.socket,
        workers=args.workers,
        ready_callback=ready,
    )
    tracing.flush_to_dir("server")
    return 0


if __name__ == "__main__":
    sys.exit(main())
