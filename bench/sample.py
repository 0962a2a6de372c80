"""One benchmark sample, run by ``run.py`` in a fresh interpreter.

    python3 bench/sample.py <root> <mode> <t0> <spec-json>

``root`` is the checkout whose ``src/wordposets`` is measured, ``mode`` is
``setup`` (set up, then exit), ``run`` (timed, tracing off) or ``trace``
(timed, every traced function wrapped), and ``t0`` is the parent's
``time.monotonic()`` just before it started this process, so the reported
set-up time covers interpreter start, import, input generation and input
files.  The result is one JSON object on the last line of stdout.

Times are rescaled to a fixed host speed by ``speed.py``, except in
``trace`` mode; the ``raw_`` fields keep them as the clock read them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import resource
import shutil
import sys
import time

import speed
import workloads


def _import_package(root):
    src = root / "src"
    sys.path.insert(0, str(src))
    import wordposets
    from wordposets import cli, networks

    where = pathlib.Path(wordposets.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"wordposets resolved to {where}, outside {src}")
    return wordposets, cli, networks


def _timed(probe, fn, *args):
    """(value, op) for one call; op is (net seconds, first probe, end probe)
    as ``speed.normalize`` takes it."""
    clock = time.perf_counter
    first, spent = len(probe.durations), probe.spent
    t = clock()
    value = fn(*args)
    wall = clock() - t
    return value, (wall - (probe.spent - spent), first, len(probe.durations))


def _query_mix(cli, requests, paths, probe):
    """Run each request through cli.run in process; stdout and stderr of
    each call are captured so the answers can be checked afterwards."""
    ops, answers = [], []
    real_out, real_err = sys.stdout, sys.stderr

    def request_code(argv):
        try:
            return cli.run(argv)
        except Exception as exc:  # a traceback is a failed request, not a lost sample
            return f"{type(exc).__name__}: {exc}"

    try:
        for request in requests:
            argv = workloads.argv_of(request, paths)
            sys.stdout = out = io.StringIO()
            sys.stderr = io.StringIO()
            code, op = _timed(probe, request_code, argv)
            ops.append(op)
            answers.append([code, out.getvalue()])
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return ops, answers


def main(argv):
    root, mode, t0, spec = pathlib.Path(argv[0]), argv[1], float(argv[2]), json.loads(argv[3])
    wp, cli, networks = _import_package(root)
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    workload = spec["workload"]
    result = {"wordposets_file": wp.__file__}
    workdir = root / "bench" / "out" / f"work-{os.getpid()}"
    try:
        if workload == "query_mix":
            alphabet, requests = workloads.make_requests(spec["seed"], spec["requests"])
            result["input_digest"] = workloads.digest([alphabet, requests])
            workdir.mkdir(parents=True, exist_ok=True)
            paths = workloads.write_inputs(workdir, alphabet)
        raw_setup = time.monotonic() - t0
        result.update(raw_setup_s=raw_setup, setup_s=raw_setup * speed.burst_factor())
        if mode == "setup":
            print(json.dumps(result))
            return 0

        # The traced sample runs without the probe: its per-layer times are
        # raw, and no probe lands inside a traced span.
        probe = speed.SpeedProbe()
        with probe if tracer is None else contextlib.nullcontext():
            if workload == "sorting_networks":
                answer, op = _timed(probe, networks.p_n, spec["n"])
                ops, answers = [op], [answer]
            elif workload == "class_search":
                labels = {wp.INFINITY if m == "inf" else m for m in spec["labels"]}
                found, op = _timed(probe, networks.search_M, spec["k"], labels,
                                   spec["max_rank"])
                ops = [op]
                answers = [{"value": found.value, "rank": found.graph.rank,
                            "edges": found.graph.to_json_dict()["edges"],
                            "word": list(found.word)}]
            else:
                ops, answers = _query_mix(cli, requests, paths, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = [net for net, _first, _end in ops]
    latencies = raw if tracer is not None else speed.normalize(ops, probe.durations)
    result.update(wall_s=sum(latencies), raw_wall_s=sum(raw), latencies_s=latencies,
                  probes=len(probe.durations), answers=answers,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["inclusive_s"] = {name: agg[1] for name, agg in tracer.stats.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
