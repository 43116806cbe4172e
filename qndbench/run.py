"""qndsim benchmark: one workload, one closed-loop client, outputs checked.

Usage (from the repository root):

    python3 qndbench/run.py --workload jump_ensemble --seed 223000 \\
        --seconds 20 --trace 0

One client sends request i+1 only after request i returns, for
``--seconds`` seconds, after one discarded warm-up request. With
``--trace 0`` the run prints every end-to-end metric; with ``--trace 1``
it alternates traced and plain requests and prints the per-layer
metrics, ``trace_overhead_frac`` included. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Spans and a full record of the run (environment, digests, problems) go
to ``.qndbench_out/`` at the repository root.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2. ``--record-reference``
rewrites the stored digests that gate the default seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".qndbench_out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference_digests.json"
TAIL_SAMPLES = 10  # the tail percentile keeps this many samples above it
STORED_REQUESTS = 8  # default-seed jump_ensemble requests with a stored digest


def use_checkout_source() -> None:
    """Import qndsim from this checkout's ``src/`` or stop with exit code 2."""
    if not (SRC / "qndsim" / "__init__.py").is_file():
        print("qndbench: no qndsim package under %s" % SRC, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qndsim

    if Path(qndsim.__file__).resolve().parent != SRC / "qndsim":
        print("qndbench: imported qndsim from %s, not from %s"
              % (qndsim.__file__, SRC), file=sys.stderr)
        raise SystemExit(2)


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


# ------------------------------------------------------------------ set-up


def probe_setup(name: str, seed: int) -> None:
    """Child side of ``setup_s``: import, build the inputs, say ready."""
    from workloads import WORKLOADS

    workdir = OUT / ("probe-%d" % os.getpid())
    workdir.mkdir(parents=True)
    try:
        WORKLOADS[name](seed, False, workdir, None).setup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    """Fresh-process times until a request could be sent."""
    times = []
    for _ in range(repeats):
        cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
               "--workload", name, "--seed", str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % err.strip())
        times.append(t1 - t0)
    return times


# ------------------------------------------------------------ environment


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(threads) -> dict:
    import numpy
    import scipy
    from qndsim import _kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "backend": _kernels.BACKEND,
        "available_backends": list(_kernels.available_backends()),
        "ensemble_threads": threads,
        "cpu_count": os.cpu_count(),
        "QND_THREADS": os.environ.get("QND_THREADS"),
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


# -------------------------------------------------------------------- run


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with TAIL_SAMPLES samples above it.

    Returns (value, its percentile, samples above). Short runs fall back
    to the minimum, with fewer samples above.
    """
    d = sorted(durations)
    k = max(len(d) - TAIL_SAMPLES - 1, 0)
    pct = 100.0 * k / (len(d) - 1) if len(d) > 1 else 0.0
    return d[k], pct, len(d) - 1 - k


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False, setup_repeats: int = 7,
                 corrupt=None, stored: bool = True) -> dict:
    """Run one workload and return the full result record.

    ``tiny`` shrinks every request for quick self-tests; ``corrupt(i,
    out)`` may alter request i's output before it is checked, to prove
    the checks bite; ``stored=False`` skips the stored-digest gate.
    """
    import qndsim
    from layers import install_targets, layer_metrics, overhead_fraction
    from tracing import Tracer
    from workloads import WORKLOADS  # imports every layer the tracer wraps

    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%s-%d" % (name, os.getpid()))
    workdir.mkdir()
    cls = WORKLOADS[name]
    wl = cls(seed, tiny, workdir, load_reference().get(name) if stored else None)
    setup_times = [] if trace else measure_setup(name, seed, setup_repeats)

    tracer = needs = None
    if trace:
        tracer = Tracer()
        needs = install_targets(tracer, qndsim)
    try:
        if tracer:
            tracer.install()
        try:
            wl.setup()
        finally:
            if tracer:
                tracer.uninstall()
        wl.request(0)  # warm-up, not counted
        durations, outputs, errors, traced = {}, {}, {}, []
        client_s = 0.0  # time the client spends keeping outputs
        start = time.perf_counter()
        i = 1
        while True:
            on = trace and i % 2 == 1
            if on:
                tracer.request = i
                traced.append(i)
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = wl.request(i)
            except Exception as exc:  # a failed request is counted, not fatal
                errors[i] = "%s: %s" % (type(exc).__name__, exc)
                out = None
            t1 = time.perf_counter()
            if on:
                tracer.uninstall()
            durations[i] = t1 - t0
            try:
                if out is not None:
                    outputs[i] = wl.snapshot(corrupt(i, out) if corrupt else out)
            except Exception as exc:  # an unreadable output fails its request
                errors[i] = "%s: %s" % (type(exc).__name__, exc)
            client_s += time.perf_counter() - t1
            if t1 - start >= seconds and (not trace or i >= 2):
                break
            i += 1
        loop_wall = time.perf_counter() - start - client_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems, digests, events = dict(errors), {}, []
        for j in sorted(outputs):
            digests[j] = wl.digest(outputs[j])
            events.append(wl.events(outputs[j]))
            found = wl.check(j, outputs[j], digests[j])
            if found:
                problems[j] = "; ".join(found)
        run_problems = wl.check_run([outputs[j] for j in sorted(outputs)])
        first = min(outputs) if outputs else None
        if first is not None and trace:
            # watching a run must not change its output
            again = wl.snapshot(wl.request(first))
            if wl.digest(again) != digests[first]:
                run_problems.append("traced and plain outputs differ")
        other = [b for b in qndsim._kernels.available_backends()
                 if b != qndsim._kernels.BACKEND]
        backend_identity = "skipped: one backend"
        if first is not None and cls.backend_check and other:
            again = wl.snapshot(wl.request(first, backend=other[0]))
            same = wl.digest(again) == digests[first]
            backend_identity = "identical" if same else "differs"
            if not same:
                run_problems.append("%s backend output differs" % other[0])
        threads = wl.threads(outputs[first]) if first is not None else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(durations)
    failed = len(problems)
    ok = [durations[j] for j in sorted(outputs)]
    tail_value, tail_pct, tail_above = tail(list(durations.values()))
    report = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "request_p50_s": statistics.median(durations.values()),
        "request_tail_s": tail_value,
        "requests_per_s": len(outputs) / loop_wall,
        "events_per_s": (
            sum(events) / sum(ok) if events and None not in events else None
        ),
        "peak_rss_mb": peak_rss_mb,
        "failed_ops": failed / attempted,
    }
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not run_problems,
        "report": report,
        "tail": {"percentile": tail_pct, "samples_above": tail_above,
                 "samples": attempted},
        "setup_samples_s": setup_times,
        "request_s": [durations[j] for j in sorted(durations)],
        "problems": {str(k): v for k, v in problems.items()},
        "run_problems": run_problems,
        "backend_identity": backend_identity,
        "request_digests": {str(k): v for k, v in digests.items()},
        "stored_digests": {str(j): wl.stored_digest(outputs[j])
                           for j in sorted(outputs)},
        "env": environment(threads),
    }
    if trace:
        plain = [durations[j] for j in durations if j not in traced]
        timed = [durations[j] for j in traced]
        values = layer_metrics(tracer, traced, needs, wl.check_values(),
                               overhead_fraction(timed, plain))
        result["absent_targets"] = sorted(tracer.missing)
        tracer.write(OUT / ("%s-seed%d-spans.jsonl" % (name, seed)))
        wanted = spec["per_layer"]
    else:
        values = report
        wanted = spec["end_to_end"]
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted if values.get(m["name"]) is not None
    }
    (OUT / ("%s-seed%d-trace%d.json" % (name, seed, int(trace)))).write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def print_report(result: dict) -> None:
    r, t = result["report"], result["tail"]
    print("qndbench %s seed=%d trace=%d: %d requests, %d failed"
          % (result["workload"], result["seed"], result["trace"],
             result["attempted"], result["failed"]))
    if not result["trace"]:
        lines = [
            ("setup_s", r["setup_s"], "s", "median of %d fresh processes"
             % len(result["setup_samples_s"])),
            ("request_p50_s", r["request_p50_s"], "s", ""),
            ("request_tail_s", r["request_tail_s"], "s",
             "p%.1f, %d of %d samples above"
             % (t["percentile"], t["samples_above"], t["samples"])),
            ("requests_per_s", r["requests_per_s"], "1/s", ""),
            ("events_per_s", r["events_per_s"], "1/s",
             "" if r["events_per_s"] is not None else "no sampled events"),
            ("peak_rss_mb", r["peak_rss_mb"], "MB", ""),
            ("failed_ops", r["failed_ops"], "fraction", "%d of %d attempted"
             % (result["failed"], result["attempted"])),
        ]
        for name, value, unit, note in lines:
            shown = "n/a" if value is None else "%.6g" % value
            print("  %-16s %12s %-8s %s" % (name, shown, unit, note))
    else:
        for name, m in result["metrics"].items():
            print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
        if result["absent_targets"]:
            print("  absent (target missing): %s"
                  % ", ".join(result["absent_targets"]))
    for key, problem in list(result["problems"].items())[:5]:
        print("  request %s failed: %s" % (key, problem))
    for problem in result["run_problems"][:5]:
        print("  run check failed: %s" % problem)
    print("  backend identity: %s" % result["backend_identity"])
    print("  env: %s" % json.dumps(result["env"], sort_keys=True))


def record_reference(seconds: float) -> None:
    """Store the default-seed digests that gate later runs."""
    from workloads import WORKLOADS

    stored = {}
    for name in ("jump_ensemble", "cli_artifacts"):
        seed = WORKLOADS[name].default_seed
        res = run_workload(name, seed, seconds, False, setup_repeats=1,
                           stored=False)
        if res["failed"] or res["run_problems"]:
            raise RuntimeError("%s failed its own checks" % name)
        digests = res["stored_digests"]
        if name == "cli_artifacts":
            stored[name] = {"seed": seed, "digest": digests["1"]}
        else:
            stored[name] = {"seed": seed, "requests": {
                k: v for k, v in digests.items() if int(k) <= STORED_REQUESTS}}
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite the stored default-seed digests")
    args = ap.parse_args(argv)

    use_checkout_source()
    from workloads import WORKLOADS

    if args.record_reference:
        record_reference(args.seconds or 5.0)
        return 0
    if args.workload not in WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    if args.probe_setup:
        probe_setup(args.workload, seed)
        return 0
    seconds = args.seconds or load_spec()["run_seconds"]
    result = run_workload(args.workload, seed, seconds, bool(args.trace))
    print_report(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
