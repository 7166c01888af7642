"""Run ``qeci.cli.main(argv)`` in a child process, then time a calibration.

Usage: python cli_launch.py OUT_JSON TRACE CLI_ARG...

With TRACE 1 the span wrappers are installed, ``import qeci.cli`` is timed
and the call to ``main`` is traced like any in-process op. Either way, once
main has returned or raised, the child times the calibration passes of
calibrate.py, writes them (and, when traced, the spans and counters) to
OUT_JSON, and exits with main's exit code. An exception escaping main is
re-raised after that, so the exit code and traceback match a plain
``python -m qeci.cli`` run.
"""

import json
import sys
import time

from spans import Tracer


def launch(out_path: str, trace: bool, argv: list[str]) -> int:
    start = time.perf_counter()
    import qeci.cli

    import_ms = (time.perf_counter() - start) * 1e3
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    try:
        if tracer is None:
            return qeci.cli.main(argv)
        tracer.install()
        return tracer.run_op(0, lambda: qeci.cli.main(argv))
    finally:
        doc = {}
        if tracer is not None:
            tracer.extra_ms["cli.main_ms"] = (time.perf_counter() - start) * 1e3
            tracer.extra_ms["cli.import_ms"] = import_ms
            tracer.uninstall()
            doc = tracer.dump()
        import calibrate

        doc["calibration_s"] = calibrate.child_passes()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
