"""Run one benchmark job in a fresh interpreter and write its report.

Usage: python3 perfbench/worker.py JOB.json REPORT.json

A job is a list of ``freqattn`` command lines, run in-process through
``freqattn.cli.main`` one after another. The report holds, per command, the
exit code, wall time and captured output, plus:

* ``setup_s``: from just before ``import freqattn`` to the first forward
  pass (``forward_train`` or ``forward_embed``). In ``setup`` mode the job
  stops there.
* ``step_times``: the clock at each ``speakernet.Adam.step`` return.
* ``peak_rss_mb``: the peak resident set of this process.
* ``oracle_eer_pct``: ``metrics.compute_eer`` on the scores file, parsed
  here rather than by the program.
* ``trace``: per-layer spans, when the job asks for them.

Each job starts with the program's module-level caches cold, as every real
``freqattn`` command does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


class _FirstForward(Exception):
    """Raised by the set-up marker to end a ``setup`` job."""


def parse_scores_file(path: Path):
    """(label, enroll, test, score) per line; None for a line that does not parse."""
    rows = []
    for line in path.read_text().splitlines():
        parts = line.split()
        try:
            rows.append((int(parts[0]), parts[1], parts[2], float(parts[3])))
        except (IndexError, ValueError):
            rows.append(None)
    return rows


def _run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    stopped = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except _FirstForward:
        rc, stopped = 0, True
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command; the report still goes out
        rc = 1
        err.write(traceback.format_exc())
    return {"command": argv[0], "rc": rc, "wall_s": time.perf_counter() - start,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}, stopped


def main(job_path: str, report_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    start = time.perf_counter()
    from freqattn import cli
    from freqattn import speakernet as sn
    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"freqattn imported from {cli.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    first_forward = []
    markers = {name: getattr(sn, name) for name in ("forward_train", "forward_embed")}

    def marked(name):
        inner = markers[name]

        def marker(*args, **kwargs):
            if not first_forward:
                first_forward.append(time.perf_counter())
                for n, fn in markers.items():
                    setattr(sn, n, fn)
                if job["mode"] == "setup":
                    raise _FirstForward
            return inner(*args, **kwargs)
        return marker

    for name in markers:
        setattr(sn, name, marked(name))

    step_times = []
    adam_step = sn.Adam.step

    def stamped_step(self):
        adam_step(self)
        step_times.append(time.perf_counter())

    sn.Adam.step = stamped_step

    commands = []
    try:
        for argv in job["commands"]:
            result, stopped = _run_command(cli, argv)
            commands.append(result)
            if stopped or result["rc"] != 0:
                break
    finally:
        sn.Adam.step = adam_step
        for name, fn in markers.items():
            setattr(sn, name, fn)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    report = {
        "commands": commands,
        "setup_s": first_forward[0] - start if first_forward else None,
        "step_times": step_times,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["trace_restored"] = tracer.restore()
    scores = job.get("scores")
    if scores and Path(scores).exists() and job["mode"] == "run":
        from freqattn import metrics as mt
        rows = parse_scores_file(Path(scores))
        trials = [mt.Trial(label=r[0], enroll=r[1], test=r[2], score=r[3])
                  for r in rows if r is not None and math.isfinite(r[3])]
        try:
            report["oracle_eer_pct"] = mt.compute_eer(trials)[0] * 100.0
        except ValueError as exc:
            report["oracle_error"] = str(exc)
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
