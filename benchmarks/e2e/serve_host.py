"""Run ``repro-serve`` in this process, probed and optionally traced.

``serve_host.py --probe-dir DIR [--trace-dir DIR] <repro-serve arguments>``
pins the process to one CPU, so that every daemon thread runs where the
speed probe (speed.py) samples, and starts the probe.  With
``--trace-dir`` it patches the layers before the daemon starts.  Once
``serve_main`` has drained on SIGTERM and returned, it writes the speed
samples and the trace.
"""

from __future__ import annotations

import argparse
import os
import sys

import speed


def main(argv=None) -> int:
    # Before any thread exists, so that all of them inherit it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = speed.SpeedProbe().start()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe-dir", required=True)
    parser.add_argument("--trace-dir", default=None)
    args, serve_args = parser.parse_known_args(argv)

    tracer = None
    if args.trace_dir:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer, args.trace_dir)
    from repro.cli import serve_main

    try:
        return serve_main(serve_args)
    finally:
        probe.stop()
        probe.dump(args.probe_dir)
        if tracer is not None:
            tracer.dump(args.trace_dir)


if __name__ == "__main__":
    sys.exit(main())
