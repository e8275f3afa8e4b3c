#!/usr/bin/env python3
"""Repository benchmark for CoANE.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_wide --seed 1 --seconds 30 --trace 0

Builds the library, the coane_serve daemon and the measuring binary
(perfbench/src) into .bench_build (or $CARGO_TARGET_DIR), generates the
workload's graph from --seed, trains on it, serves the trained embeddings
under load, checks the outputs, and prints one JSON object as the last
stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced replay and reports the per-layer metrics instead. Every workload
reports every metric. Workload parameters live in perfbench/workloads.json.
"""

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = os.path.join(HERE, "workloads.json")
SPEC = os.path.join(REPO, "BENCHMARK.json")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        raise BenchError(f"{REPO} is not a CoANE checkout (no src/)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(REPO, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=REPO).returncode != 0:
                raise BenchError(f"build failed; see {log_path}")
    return build_dir


def last_json(text):
    lines = [l for l in text.strip().splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError("no JSON result line from the measuring binary")
    return json.loads(lines[-1])


def run_tool(argv, log_file, timeout):
    """Runs one measuring process to completion; returns its JSON line."""
    with open(log_file, "a") as err:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=err,
                              text=True, timeout=timeout, cwd=REPO)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[0])} {argv[1]} exited "
                         f"{proc.returncode}; see {log_file}")
    return last_json(proc.stdout)


def run_train(cfg, tools, work, args, seconds):
    """Generates the graph, then times the real training pipeline. Returns
    (result, attempted, failed, path of the saved embeddings)."""
    prefix = os.path.join(work, "g")
    err_path = os.path.join(work, "stderr.log")
    sizes = run_tool([tools["bench"], "gen-graph", f"--dataset={cfg['dataset']}",
                      f"--scale={cfg['scale']}", f"--seed={args.seed}",
                      f"--out={prefix}"], err_path, 120)
    epochs = max(cfg["min_epochs"], round(seconds / cfg["seconds_per_epoch"]))
    argv = [tools["bench"], "train", f"--edges={prefix}.edges",
            f"--attrs={prefix}.attrs", f"--labels={prefix}.labels",
            f"--nodes={sizes['nodes']}", f"--attr-dim={sizes['attributes']}",
            f"--dim={cfg['dim']}", f"--threads={cfg['threads']}",
            f"--seed={args.seed}", f"--out-dir={work}"]
    if cfg["presample"]:
        argv.append("--presample")
    if args.trace:
        span_dir = os.path.join(REPO, ".bench_out", "traces")
        os.makedirs(span_dir, exist_ok=True)
        argv += ["--trace", "--epochs=1", "--trace-out=" + os.path.join(
            span_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")]
    else:
        argv += [f"--epochs={epochs}", f"--setup-reps={cfg['setup_reps']}"]
    r = run_tool(argv, err_path, 170)

    checks = {"finite": r["finite"]}
    if args.trace:
        # Per-layer numbers count only when the replay is the real program.
        checks["replay_identical"] = r["replay_identical"]
        attempted = 2 + r["core.batches"]
    else:
        checks["reload_ok"] = r["reload_ok"]
        checks["micro_f1"] = r["micro_f1"] >= cfg["micro_f1_floor"]
        attempted = cfg["setup_reps"] + epochs + 1  # + the final save
        print(f"{args.workload} seed={args.seed}: {epochs} epochs "
              f"({', '.join(f'{s:.3f}' for s in r['epoch_s'])} s), "
              f"micro-F1 {r['micro_f1']:.4f} "
              f"(floor {cfg['micro_f1_floor']})")
    print(f"{args.workload} seed={args.seed} embeddings crc32={r['crc32']}")
    failed = sum(1 for ok in checks.values() if not ok)
    for name, ok in checks.items():
        if not ok:
            log(f"check failed: {name}")
    return r, attempted, failed, os.path.join(work, "model.emb")


def start_server(tools, cfg, artifact, err):
    """Starts coane_serve; returns (process, port, seconds until it listens)."""
    store = artifact + ".store"
    if os.path.exists(store):
        os.remove(store)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [tools["serve"], f"--embeddings={artifact}", "--port=0",
         f"--threads={cfg['server_threads']}",
         f"--max-conns={cfg['max_conns']}"],
        stdout=subprocess.PIPE, stderr=err, text=True, cwd=REPO)
    ready, _, _ = select.select([proc.stdout], [], [], 60.0)
    line = proc.stdout.readline() if ready else ""
    setup = time.monotonic() - t0  # "serving on 127.0.0.1:PORT" is out
    if not line.startswith("serving on "):
        proc.kill()
        stop_server(proc)
        raise BenchError("coane_serve did not start")
    return proc, int(line.rsplit(":", 1)[1]), setup


def stop_server(proc, grace=10.0):
    """Reaps the daemon, escalating to SIGTERM after `grace` s and SIGKILL
    10 s later; returns its max RSS in MiB, or None if it had to be killed.
    (Popen.poll/wait would reap it without the rusage, so wait4 it here.)"""
    deadline = time.monotonic() + grace
    signals = [signal.SIGTERM, signal.SIGKILL]
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            return None if killed else usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            if not signals:
                raise BenchError("coane_serve did not exit")
            proc.send_signal(signals.pop(0))
            killed = True
            deadline = time.monotonic() + 10.0
        time.sleep(0.01)


def run_serve(cfg, tools, artifact, work, args, seconds):
    """Serves `artifact` with the real daemon: open-loop KNN reads at two
    rates plus periodic PUBLISH. Returns (result, start-up times, daemon
    max RSS in MiB, attempted, failed)."""
    err_path = os.path.join(work, "stderr.log")
    warmup = cfg["warmup_s"]
    phase_s = max(1.0, seconds / len(cfg["rates"]) - warmup)
    phases = [(name, rate, phase_s) for name, rate in cfg["rates"].items()]
    publishes = sum(int(s / cfg["publish_every_s"]) + 1 for _, _, s in phases)
    verify = os.path.join(work, "verify.emb")
    shutil.copyfile(artifact, verify)
    published = []
    for i in range(publishes):
        published.append(os.path.join(work, f"publish{i}.emb"))
        shutil.copyfile(artifact, published[-1])
    os.sync()  # write back training's files and the copies before timing

    setups = []
    with open(err_path, "a") as err:
        server = None
        try:
            for _ in range(cfg["setup_reps"]):
                if server is not None:
                    server.send_signal(signal.SIGTERM)  # graceful drain
                    stop_server(server)
                    server = None
                server, port, setup = start_server(tools, cfg, artifact, err)
                setups.append(setup)
            argv = [tools["bench"], "loadgen", f"--port={port}",
                    f"--verify-artifact={verify}",
                    "--publish=" + ",".join(published),
                    "--phases=" + ",".join(f"{n}:{r}:{s}"
                                           for n, r, s in phases),
                    f"--warmup={warmup}",
                    f"--publish-every={cfg['publish_every_s']}",
                    f"--read-conns={cfg['read_conns']}", f"--k={cfg['k']}",
                    f"--verify-every={cfg['verify_every']}",
                    f"--engine-threads={cfg['server_threads']}",
                    f"--seed={args.seed}"] + (["--trace"] if args.trace else [])
            r = run_tool(argv, err_path, 150)
            rss = stop_server(server)  # loadgen ends with QUIT
            server = None
        finally:
            if server is not None:
                server.kill()
                stop_server(server)

    failed = r["failed"] + (1 if rss is None else 0)
    if r["mismatched"] or r["verified"] == 0 or r["conn_lost"]:
        failed += 1
    if len(r["publish_s"]) == 0:
        failed += 1
    timed = ", ".join(f"{r['knn_count.' + n]} at {n}" for n, _, _ in phases)
    print(f"{args.workload} seed={args.seed}: served {r['attempted']} "
          f"requests ({timed} timed), {r['verified']} replies checked "
          f"in-process, {len(r['publish_s'])} publishes")
    return r, setups, rss, r["attempted"], failed


def run_workload(cfg, tools, work, args):
    """Trains on the workload's graph, then serves the trained embeddings."""
    serve_seconds = args.seconds * cfg["serve_share"]
    t, t_attempted, t_failed, emb = run_train(
        cfg, tools, work, args, args.seconds - serve_seconds)
    s, starts, rss, s_attempted, s_failed = run_serve(
        cfg["serve"], tools, emb, work, args, serve_seconds)
    attempted = t_attempted + s_attempted
    failed = t_failed + s_failed
    if args.trace:
        metrics = {**t, **s}
        metrics["serve.daemon_start_s"] = statistics.median(starts)
        metrics["load.err_frac"] = s_failed / max(1, s_attempted)
    else:
        metrics = {
            # Training set-up plus daemon start-up: work moved from either
            # hot path into set-up shows here.
            "setup_s": statistics.median(t["setup_s"]) +
                       statistics.median(starts),
            "epoch_s": statistics.median(t["epoch_s"]),
            "peak_rss_mb": t["peak_rss_mb"],
            "serve_rss_mb": rss or 0.0,
            "publish_s": statistics.median(s["publish_s"] or [0.0]),
        }
        for name in cfg["serve"]["rates"]:
            metrics[f"knn_p50_ms.{name}"] = s[f"knn_p50_ms.{name}"]
    return metrics, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(WORKLOADS) as f:
        workloads = json.load(f)
    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    cfg = workloads[args.workload]

    build_dir = build()
    tools = {"bench": os.path.join(build_dir, "coane_perfbench"),
             "serve": os.path.join(build_dir, "repo", "tools", "coane_serve")}
    work = os.path.join(REPO, ".bench_out", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        measured, attempted, failed = run_workload(cfg, tools, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError,
            KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
