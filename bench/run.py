"""wordposets benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package measured is the checkout's own
``src/wordposets``.  Workloads (one caller, closed loop, one thread):

  sorting_networks  networks.p_n(8), expected 1232944 (OEIS A006245)
  class_search      networks.search_M(6, labels={2,3,4,inf}, max_rank=4),
                    expected 8
  query_mix         1008 seeded requests through cli.run(argv) in process

Every sample runs in a fresh interpreter (``sample.py``), so no cache can
carry over between samples and set-up time and peak RSS are per process.
The host's speed changes in phases, so every time reported with
``--trace 0`` is rescaled to a fixed host speed by a probe loop timed
during the work (``speed.py``); the unscaled times go to ``bench/out/``.
With ``--trace 0`` samples repeat until the next one would end past
``--seconds``, and the end-to-end metrics are medians over them; set-up
time is the median over the samples and over set-up-only processes run
between them.  With ``--trace 1`` one untraced and one traced sample run,
the per-layer metrics come from the traced one (see ``tracing.py``) and
the ratio of their times is the tracing overhead.  Answers are checked
after the timed region; the last line of stdout is the result as JSON, and
the full record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import workloads

SETUP_PROBES = 7
# Every run ends within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 150.0

UNITS = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP", "PYTHONINSPECT")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root, mode, spec, deadline):
    """Run one sample process to completion and return its JSON result."""
    script = pathlib.Path(__file__).resolve().parent / "sample.py"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a sample could start")
    t0 = time.monotonic()
    cmd = [sys.executable, "-s", str(script), str(root), mode, repr(t0), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} sample did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def _src_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "wordposets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _import_package(root):
    sys.path.insert(0, str(root / "src"))
    import wordposets

    return wordposets


def check(spec, samples, root, inputs):
    """(attempted, failures) over every answer of every timed sample."""
    workload = spec["workload"]
    wp = _import_package(root)
    attempted, failures = 0, []
    if workload == "query_mix":
        alphabet, requests = inputs
        reference = workloads.Reference(wp, alphabet)
        verdicts = {}  # samples repeat the same answers; check each once
        for s in samples:
            for i, (request, (code, out)) in enumerate(zip(requests, s["answers"])):
                attempted += 1
                key = (i, code, out)
                if key not in verdicts:
                    verdicts[key] = reference.problem(request, code, out)
                if verdicts[key]:
                    failures.append(f"{request[0]} {request[1]} {request[2]}: {verdicts[key]}")
        return attempted, failures
    for s in samples:
        for answer in s["answers"]:
            attempted += 1
            if workload == "sorting_networks":
                want = workloads.P_N[spec["n"]]
                if answer != want:
                    failures.append(f"p_n({spec['n']}) = {answer}, expected {want}")
            else:
                problems = workloads.check_search(wp, answer, spec["k"])
                if problems:
                    failures.append("; ".join(problems))
    return attempted, failures


def end_to_end(samples, setups):
    walls = [s["wall_s"] for s in samples]
    latencies = [t for s in samples for t in s["latencies_s"]]
    values = {
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(len(s["latencies_s"]) / s["wall_s"] for s in samples),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setups),
    }
    return {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}, len(latencies)


def per_layer(untraced, traced):
    metrics = {name: {"value": v, "unit": "count" if name.endswith(".calls") else "s"}
               for name, v in traced["layers"].items()}
    metrics["tracing.overhead_ratio"] = {"value": traced["raw_wall_s"] / untraced["raw_wall_s"],
                                         "unit": "ratio"}
    return metrics


def measure(root, spec, seconds, trace):
    """Spawn the set-up probes and the samples; returns the raw record.

    Set-up probes run in pairs before each sample rather than all at once,
    so their median sees the same machine state as the samples do.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    spawn(root, "setup", spec, deadline)  # compiles bytecode; not counted
    setups = []

    def probe(count):
        setups.extend(spawn(root, "setup", spec, deadline)["setup_s"] for _ in range(count))

    if trace:
        untraced = spawn(root, "run", spec, deadline)
        traced = spawn(root, "trace", spec, deadline)
        return {"setups": setups, "samples": [untraced, traced], "traced": traced}
    samples = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        probe(2)
        samples.append(spawn(root, "run", spec, deadline))
        took = time.monotonic() - began
        if time.monotonic() - start + took > seconds or time.monotonic() + took > deadline:
            break
    probe(max(0, SETUP_PROBES - len(setups)))
    return {"setups": setups + [s["setup_s"] for s in samples], "samples": samples}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd().resolve()
    if not (root / "src" / "wordposets" / "__init__.py").is_file():
        print(f"error: no src/wordposets package under {root}", file=sys.stderr)
        return 2
    spec = dict(workloads.SPECS[args.workload], workload=args.workload, seed=args.seed)
    inputs = None
    if args.workload == "query_mix":
        inputs = workloads.make_requests(args.seed, spec["requests"])
    input_digest = workloads.digest(inputs if inputs else spec)

    try:
        record = measure(root, spec, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    samples = record["samples"]
    attempted, failures = check(spec, samples, root, inputs)
    for s in samples:
        if s.get("input_digest", input_digest) != input_digest:
            failures.append(f"sample used inputs {s['input_digest']}, expected {input_digest}")

    if args.trace:
        metrics = per_layer(samples[0], record["traced"])
        latency_count = None
    else:
        metrics, latency_count = end_to_end(samples, record["setups"])
    env = {
        "wordposets_file": samples[0]["wordposets_file"],
        "commit": _git_commit(root),
        "src_digest": _src_digest(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "input_digest": input_digest,
        "samples": len(samples),
        "latency_count": latency_count,
        "setup_probes": len(record["setups"]),
        "error_rate": len(failures) / attempted,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    out_dir = root / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    for s in samples:
        s.pop("answers", None)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "spec": spec, "failures": failures,
                    "record": record, "result": result}, indent=1))
    for line in failures[:20]:
        print(f"FAIL {line}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
