"""Run loopsmith CLI invocations inside this interpreter, traced or not.

Usage: python inproc.py SPEC RESULT

SPEC is a JSON file {"mode": "trace" | "plain", "argvs": [[...], ...]}.
Each argv goes to ``loopsmith.cli.main`` in turn, with standard output
captured.  RESULT receives the wall time of the loop over all argvs, each
invocation's exit code and output, and in trace mode the recorded spans.
Both modes time the same region, so their difference is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def run(argvs, recorder=None):
    from loopsmith import cli

    if recorder is not None:
        import spans

        spans.install(recorder)
    outputs = []
    start = time.perf_counter()
    for argv in argvs:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # one broken invocation must not hide the others
                code = -1
                err.write(traceback.format_exc())
        outputs.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    wall = time.perf_counter() - start
    return wall, outputs


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    recorder = None
    if spec["mode"] == "trace":
        import spans

        recorder = spans.Recorder()
    wall, outputs = run(spec["argvs"], recorder)
    result = {"wall_s": wall, "outputs": outputs}
    if recorder is not None:
        result["trace"] = recorder.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
