"""Run the adafilter CLI with spans recorded around the calls into its layers.

Usage: python3 perfbench/traced_cli.py SPAN_DIR ADAFILTER_ARGS...

Spans of this process are written to SPAN_DIR when the CLI returns. Worker
processes forked by ``simulate --threads N`` write theirs after each chunk
of replications, since pool workers leave without running exit handlers.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

from spans import Recorder


def main() -> int:
    span_dir = Path(sys.argv[1])
    recorder = Recorder()
    recorder.install()
    import adafilter.cli

    os.register_at_fork(after_in_child=lambda: recorder.start_worker(span_dir))
    try:
        return recorder.wrap(adafilter.cli.main, "cli.main")(sys.argv[2:])
    finally:
        recorder.flush(span_dir)


if __name__ == "__main__":
    sys.exit(main())
