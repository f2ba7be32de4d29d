"""mmi-lab benchmark: run one workload end to end and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see METRICS.md): ``mmi-report``, ``calibration`` and
``deadtime-sweep``.  Every command runs in a fresh child interpreter, one at
a time, against the sources under ``src/`` of the checkout this file sits
in, with ``MMI_LAB_THREADS=2``.

With ``--trace 0`` the workload is repeated for ``--seconds`` seconds (at
least once) and the end-to-end metrics are taken over all repeats (see
``end_to_end``).  With ``--trace 1`` it runs once untraced and once traced,
and the per-layer metrics come from the traced repeat.  Every repeat's outputs are
checked; a check that fails, or a repeat whose stream and report digests
differ from the first repeat's, counts as a failed operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record with provenance,
digests and every check goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import probes
from tracer import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREADS = "2"
RUN_LIMIT_S = 170.0
FUNNEL = ("n_emitted", "delivered_pairs", "detected_pairs", "n_suppressed", "n_tags")
END_TO_END = (("setup_s", "s"), ("simulate_s", "s"), ("analyze_s", "s"),
              ("total_s", "s"), ("peak_rss_mb", "MB"))


def child_env() -> dict:
    path = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                  if os.environ.get("PYTHONPATH") else [])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path),
            "MMI_LAB_THREADS": THREADS}


def spawn(argv: list[str], env: dict, log: Path, timeout: float) -> dict:
    """Run one child to completion; wall times are taken around spawn and
    reap, peak RSS from the child's own rusage."""
    actions = [(os.POSIX_SPAWN_OPEN, fd, f"{log}.{name}",
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
               for fd, name in ((1, "out"), (2, "err"))]
    t_spawn = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    killer = threading.Timer(max(timeout, 1.0), os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    return {"t_spawn": t_spawn, "t_exit": time.monotonic(),
            "exit_code": os.waitstatus_to_exitcode(status),
            "rss_mb": usage.ru_maxrss / 1024.0}


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def identity(steps, payloads) -> dict:
    """Digests and funnel counts that must repeat exactly for one seed."""
    ident = {"streams": {}, "reports": {}, "funnel": {}}
    for step, payload in zip(steps, payloads):
        if step.stream:
            ident["streams"][step.label] = file_sha256(step.stream)
        if step.report:
            report = json.loads(step.report.read_text(encoding="utf-8"))
            canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
            ident["reports"][step.label] = hashlib.sha256(canonical.encode()).hexdigest()
            if step.phase == "simulate":
                ident["funnel"][step.label] = {k: report[k] for k in FUNNEL}
        if "funnel" in payload:
            ident["streams"][step.label] = payload["stream_sha256"]
            ident["reports"][step.label] = payload["report_sha256"]
            ident["funnel"][step.label] = payload["funnel"]
    return ident


def run_once(name: str, seed: int, d: Path, env: dict, deadline: float,
             tracer: Tracer | None = None) -> dict:
    """One repeat of the workload: its metrics, checks, identity and, when
    traced, the per-process import times and sweep coverage."""
    wl = WORKLOADS[name]
    steps = wl.steps(seed, d)
    procs, payloads, imports = [], [], []
    flag = "1" if tracer else "0"
    for i, step in enumerate(steps):
        log = d / f"{i}-{step.label}"
        argv = (["-X", "importtime"] if tracer else []) + [
            str(BENCH / "child.py"), f"{log}.json", flag, *step.argv]
        timeout = deadline - time.monotonic()
        if tracer:
            with tracer.span("bench.process") as rec:
                proc = spawn(argv, env, log, timeout)
        else:
            proc = spawn(argv, env, log, timeout)
        try:
            with open(f"{log}.json", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = {}
        if tracer:
            tracer.graft(payload.get("spans", []), rec["id"])
            imports.append(probes.parse_importtime(Path(f"{log}.err").read_text()))
        procs.append(proc)
        payloads.append(payload)

    checks = [(f"exit.{s.label}", p["exit_code"] == 0 and "start" in q,
               f"exit code {p['exit_code']}")
              for s, p, q in zip(steps, procs, payloads)]
    ident = None
    if all(ok for _, ok, _ in checks):
        try:
            checks += wl.checks(seed, steps, payloads)
            ident = identity(steps, payloads)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            checks.append((f"{name}.outputs", False, f"{type(exc).__name__}: {exc}"))

    cmd = [q.get("end", 0.0) - q.get("start", 0.0) for q in payloads]
    phase = {"simulate": 0.0, "analyze": 0.0}
    for step, q, c in zip(steps, payloads, cmd):
        if step.phase == "sweep":
            phase["simulate"] += q.get("simulate_s", 0.0)
            phase["analyze"] += q.get("analyze_s", 0.0)
        else:
            phase[step.phase] += c
    # The processes split into the parts the end-to-end metrics are made of:
    # (name, phase, seconds, whether the part counts at its fastest repeat).
    # Sweep runs are steps of about 0.1 s that every run repeats about ten
    # times, so one repeat of each nearly always finds its core in the fast
    # state (see end_to_end); set-ups and CLI commands are longer and fewer.
    parts = []
    for step, p, q, c in zip(steps, procs, payloads, cmd):
        parts.append((f"{step.label}.setup", "setup", p["t_exit"] - p["t_spawn"] - c, False))
        if step.phase == "sweep":
            for k, (sim, ana) in enumerate(q.get("run_s", [])):
                parts += [(f"{step.label}.{k}.simulate", "simulate", sim, True),
                          (f"{step.label}.{k}.analyze", "analyze", ana, True)]
            parts.append((f"{step.label}.rest", "rest",
                          c - q.get("simulate_s", 0.0) - q.get("analyze_s", 0.0), False))
        else:
            parts.append((step.label, step.phase, c, False))
    sweep_runs = [r for q in payloads for r in q.get("runs", [])]
    return {
        "metrics": {
            "setup_s": statistics.fmean(p["t_exit"] - p["t_spawn"] - c
                                        for p, c in zip(procs, cmd)),
            "simulate_s": phase["simulate"],
            "analyze_s": phase["analyze"],
            "total_s": procs[-1]["t_exit"] - procs[0]["t_spawn"],
            "peak_rss_mb": max(p["rss_mb"] for p in procs),
        },
        "parts": parts,
        "checks": [{"name": n, "ok": bool(ok), "detail": dt} for n, ok, dt in checks],
        "identity": ident,
        "imports": imports,
        "coverage": (sum(r["covered"] for r in sweep_runs) / len(sweep_runs)
                     if sweep_runs else 0.0),
    }


def end_to_end(repeats: list[dict]) -> dict:
    """The end-to-end metrics of a run from all its repeats.

    The host this was written on switches each core between a fast and a
    slow state (about 2x on the Python loops) every few tenths of a second
    to a few seconds, and the whole host between busier and quieter spells
    lasting minutes.  A part flagged in ``run_once`` counts at its fastest
    repeat, which noise can only lengthen; every other part counts at its
    mean over the repeats, which a single repeat in the wrong state moves
    least.  ``simulate_s`` and ``analyze_s`` sum their parts, ``total_s``
    sums all parts, and ``setup_s`` is the median set-up over every process
    of every repeat.
    """
    samples: dict[str, list[float]] = {}
    for r in repeats:
        for name, _, s, _ in r["parts"]:
            samples.setdefault(name, []).append(s)
    by_phase = dict.fromkeys(("setup", "simulate", "analyze", "rest"), 0.0)
    for name, phase, _, fastest in repeats[0]["parts"]:
        by_phase[phase] += (min if fastest else statistics.fmean)(samples[name])
    return {
        "setup_s": statistics.median(s for r in repeats
                                     for _, phase, s, _ in r["parts"] if phase == "setup"),
        "simulate_s": by_phase["simulate"],
        "analyze_s": by_phase["analyze"],
        "total_s": sum(by_phase.values()),
        "peak_rss_mb": statistics.median(r["metrics"]["peak_rss_mb"] for r in repeats),
    }


def _fresh(work: Path, index: int) -> Path:
    d = work / f"repeat{index}"
    d.mkdir()
    return d


def same_identity(check: str, first: dict, other: dict) -> dict:
    ok = first["identity"] is not None and first["identity"] == other["identity"]
    return {"name": check, "ok": ok,
            "detail": "digests and funnel counts equal" if ok else "differ"}


def provenance(name: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "MMI_LAB_THREADS": THREADS,
        "git_commit": commit,
        "workload_seed": seed,
        "step_seeds": {s.label: s.seed
                       for s in WORKLOADS[name].steps(seed, Path(".")) if s.seed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's pinned seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure for about this long (at least one repeat)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mmi_lab" / "__init__.py").is_file():
        print(f"error: no mmi_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    env = child_env()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        # compiles bytecode and warms the file cache; not measured
        spawn([str(BENCH / "child.py"), str(work / "warmup.json"), "0", "cli",
               "predict"], env, work / "warmup", deadline - time.monotonic())
        repeats = []
        if args.trace:
            repeats.append(run_once(args.workload, seed, _fresh(work, 0), env, deadline))
            tracer = Tracer()
            with tracer.span("bench.workload"):
                traced = run_once(args.workload, seed, _fresh(work, 1), env,
                                  deadline, tracer)
            repeats.append(traced)
        else:
            t0 = time.monotonic()
            while True:
                repeats.append(run_once(args.workload, seed,
                                        _fresh(work, len(repeats)), env, deadline))
                shutil.rmtree(work / f"repeat{len(repeats) - 1}")
                spent = time.monotonic() - t0
                if spent + spent / len(repeats) > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [c for r in repeats for c in r["checks"]]
    label = "trace.identity" if args.trace else "repeat.identity"
    checks += [same_identity(label, repeats[0], r) for r in repeats[1:]]
    failed = sum(not c["ok"] for c in checks)
    error_rate = failed / len(checks)
    if args.trace:
        layer = probes.layer_metrics(tracer.spans, traced["imports"], traced["coverage"])
        layer["trace.overhead_s"] = (traced["metrics"]["total_s"]
                                     - repeats[0]["metrics"]["total_s"], "s")
        layer["error_rate"] = (error_rate, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        values = end_to_end(repeats)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    record = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "provenance": provenance(args.workload, seed),
              "wall_s": time.monotonic() - began, "metrics": metrics,
              "error_rate": error_rate,
              "repeats": [{k: r[k] for k in ("metrics", "parts", "identity", "coverage")}
                          for r in repeats],
              "checks": checks}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for k, m in metrics.items():
        print(f"{args.workload:>14}  {k:<45} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload:>14}  {'error_rate':<45} {error_rate:>14.6g} ratio")
    print(f"checks: {failed} of {len(checks)} failed over {len(repeats)} repeats")
    for c in checks:
        if not c["ok"]:
            print(f"FAILED {c['name']}: {c['detail']}")
    print(f"record: {out}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
