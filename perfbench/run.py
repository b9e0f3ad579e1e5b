#!/usr/bin/env python3
"""The repository's benchmark: three workloads over inputs generated from
a seed, end-to-end metrics with tracing off, per-layer metrics from a
separate traced run. See perfbench/README.md.

    python3 perfbench/run.py --workload detect-train|detect-stream|serve-cycles
                             --seed N --seconds S --trace 0|1

Run from the repository root. Builds the system and the harness into
.bench_build, generates inputs under .bench_work, prints a summary, a
stamp line, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
Exits 1 when any output check fails, 2 when it cannot build or run.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
TARGETS = ["acobe_gen", "acobe_detect", "acobe_serve", "perfbench_harness"]
SETUP_REPS = 2  # dataset generations per run; setup_s is their median
# Timed repetitions per run: detect outputs are compared across two;
# every serve repetition is compared with the acobe_serve --drain run.
MIN_REPS = {"detect": 2, "serve": 1}

# Workload geometry. "full" is what the benchmark measures; "tiny" keeps
# the same shape at a size the smoke test can afford. rep_s is the time
# budgeted for one timed repetition on a 4-core box: a run makes
# --seconds // rep_s repetitions, a count that does not depend on how
# fast this particular run happens to go. Scenarios alternate
# --scenario1 and --scenario2, each planted in every department.
SIZES = {
    "full": {
        "detect-train": dict(
            users=150, departments=4, start="2010-01-02", end="2010-04-30",
            rate=0.2, train_end="2010-03-01", epochs=25, rep_s=6,
            scenarios=("2010-03-05:10", "2010-03-15:10", "2010-04-01:10",
                       "2010-04-15:10")),
        "detect-stream": dict(
            users=100, departments=12, start="2010-01-02", end="2010-03-15",
            rate=0.6, train_end="2010-02-10", epochs=1, shards=4, rep_s=6,
            scenarios=("2010-02-12:7", "2010-02-18:7", "2010-02-24:7",
                       "2010-03-02:7")),
        "serve-cycles": dict(
            users=60, departments=4, start="2010-01-02", end="2010-05-15",
            rate=0.5, window_days=28, train_days=14, omega=7, epochs=6,
            shards=2, min_scored=100, rep_s=10,
            scenarios=("2010-02-01:10", "2010-03-01:10", "2010-04-01:10",
                       "2010-04-20:10")),
    },
    "tiny": {
        "detect-train": dict(
            users=12, departments=2, start="2010-01-04", end="2010-02-28",
            rate=0.2, train_end="2010-02-01", epochs=2, rep_s=0.5,
            scenarios=("2010-02-08:7", "2010-02-15:7")),
        "detect-stream": dict(
            users=10, departments=3, start="2010-01-04", end="2010-02-28",
            rate=0.3, train_end="2010-02-01", epochs=1, shards=2, rep_s=0.5,
            scenarios=("2010-02-08:7", "2010-02-15:7")),
        "serve-cycles": dict(
            users=12, departments=2, start="2010-01-04", end="2010-02-20",
            rate=0.3, window_days=21, train_days=12, omega=5, epochs=1,
            shards=2, min_scored=10, rep_s=1,
            scenarios=("2010-02-01:5", "2010-02-10:5")),
    },
}

class BenchError(Exception):
    """The benchmark could not build or run the system (exit 2)."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(needed):
            raise BenchError(f"no {needed} here; run from the repository root")
    cmds = [["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD_DIR, f"-j{nproc()}", "--target"]
            + TARGETS]
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            raise BenchError(f"{' '.join(cmd[:3])} failed")
    return {
        "acobe_gen": os.path.join(BUILD_DIR, "acobe", "tools", "acobe_gen"),
        "acobe_detect": os.path.join(BUILD_DIR, "acobe", "tools",
                                     "acobe_detect"),
        "acobe_serve": os.path.join(BUILD_DIR, "acobe", "tools",
                                    "acobe_serve"),
        "harness": os.path.join(BUILD_DIR, "perfbench_harness"),
    }


def run_child(cmd, stdout_path=None):
    """Runs one process to completion. Returns (wall_s, peak_rss_mb,
    exit code, stderr text)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    try:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE)
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdout_path:
            out.close()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, \
        err.decode(errors="replace")


def attempt(cmd, what, result, stdout_path=None):
    """One counted operation: returns (wall_s, peak_rss_mb), or None when
    the process exits non-zero, which counts as a failed operation."""
    wall, rss, code, err = run_child(cmd, stdout_path)
    result["attempted"] += 1
    ok = code == 0
    result["checks"][f"every {what} exits 0"] = \
        ok and result["checks"].get(f"every {what} exits 0", True)
    if not ok:
        result["failed"] += 1
        sys.stderr.write(err[-3000:])
        log(f"{what} exited {code}")
        return None
    return wall, rss


def digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            h.update(name.encode())
            with open(full, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


def generate(bins, cfg, seed, data_dir, result):
    """Generates the workload's dataset SETUP_REPS times. Returns the
    median generation wall time."""
    cmd = [bins["acobe_gen"], f"--out={data_dir}", f"--users={cfg['users']}",
           f"--departments={cfg['departments']}", f"--seed={seed}",
           f"--start={cfg['start']}", f"--end={cfg['end']}",
           f"--rate={cfg['rate']}"]
    for d in range(cfg["departments"]):
        for i, when in enumerate(cfg["scenarios"]):
            cmd.append(f"--scenario{1 + i % 2}={d}:{when}")
    walls, digests = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(data_dir, ignore_errors=True)
        os.makedirs(data_dir)
        ran = attempt(cmd, "acobe_gen", result)
        if ran is None:
            raise BenchError("acobe_gen failed")
        walls.append(ran[0])
        digests.append(digest_dir(data_dir))
    result["checks"]["acobe_gen output repeats at one seed"] = \
        len(set(digests)) == 1
    return statistics.median(walls)


def mean_auc(bins, list_path, truth_path):
    proc = subprocess.run([bins["harness"], "auc", f"--list={list_path}",
                           f"--truth={truth_path}"],
                          stdout=subprocess.PIPE, check=True)
    depts = json.loads(proc.stdout)["departments"]
    aucs = [d["auc"] for d in depts if d["positives"] > 0]
    if not aucs:
        raise BenchError("no department holds a planted insider")
    return statistics.mean(aucs)


def repetitions(kind, cfg, args):
    """Timed repetitions in this run; the traced run makes the minimum."""
    fitting = 0 if args.trace else int(args.seconds // cfg["rep_s"])
    return max(MIN_REPS[kind], fitting)


def detect_cmd(bins, cfg, data_dir, stream, spool_dir):
    cmd = [bins["acobe_detect"], f"--in={data_dir}",
           f"--train-end={cfg['train_end']}", f"--epochs={cfg['epochs']}",
           f"--threads={nproc()}", "--top=1000000"]
    if stream:
        cmd += ["--stream", f"--shards={cfg['shards']}",
                f"--spool-dir={spool_dir}"]
    return cmd


def run_detect(bins, name, cfg, args, work, result):
    stream = name == "detect-stream"
    checks = result["checks"]
    data = os.path.join(work, "data")
    spool = os.path.join(work, "spool")
    setup_s = generate(bins, cfg, args.seed, data, result)

    reference = None
    if stream:  # the in-memory path on the same data, outside the timing
        reference = os.path.join(work, "reference.out")
        if attempt(detect_cmd(bins, cfg, data, False, spool),
                   "acobe_detect", result, reference) is None:
            raise BenchError("the in-memory reference run failed")

    walls, rss, outs = [], [], []
    for rep in range(repetitions("detect", cfg, args)):
        path = os.path.join(work, f"detect-{rep}.out")
        os.sync()  # earlier writes must not flush inside the timing
        ran = attempt(detect_cmd(bins, cfg, data, stream, spool),
                      "acobe_detect", result, path)
        if ran is None:
            continue
        walls.append(ran[0])
        rss.append(ran[1])
        with open(path, "rb") as fh:
            outs.append(fh.read())
    if not outs:
        raise BenchError("every acobe_detect run failed")
    checks["detect output repeats across repetitions"] = \
        len(set(outs)) == 1
    if stream:
        with open(reference, "rb") as fh:
            checks["streaming stdout == in-memory stdout"] = \
                fh.read() == outs[0]
    first_out = os.path.join(work, "first.out")
    with open(first_out, "wb") as fh:
        fh.write(outs[0])
    auc = mean_auc(bins, first_out, os.path.join(data, "truth.csv"))
    result["info"]["cycle_samples"] = len(walls)
    result["metrics"] = {
        "detect_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "insider_auc": auc,
        "cycle_s.p50": benchlib.nearest_rank(walls, 50),
        "cycle_s.p90": benchlib.nearest_rank(walls, 90),
        "setup_s": setup_s,
    }
    log(f"{name}: {len(walls)} detect runs, median "
        f"{result['metrics']['detect_s']:.3f}s")
    if not args.trace:
        return

    # Traced run: the harness replays the same calls with spans.
    list_out = os.path.join(work, "traced.out")
    report_path = os.path.join(work, "traced.json")
    cmd = [bins["harness"], "detect", f"--in={data}",
           f"--train-end={cfg['train_end']}", f"--epochs={cfg['epochs']}",
           f"--threads={nproc()}", f"--list-out={list_out}",
           f"--report-out={report_path}",
           f"--run-id={name}-{args.seed}-traced"]
    if stream:
        cmd += ["--stream", f"--shards={cfg['shards']}",
                f"--spool-dir={spool}"]
    ran = attempt(cmd, "traced harness run", result)
    if ran is None:
        raise BenchError("the traced run failed")
    traced_wall = ran[0]
    with open(list_out, "rb") as fh:
        checks["traced run printed the same lists"] = fh.read() == outs[0]
    with open(report_path) as fh:
        report = json.load(fh)
    if report["counts"]["logs.rows_rejected"] > 0:
        result["failed"] += 1
    layers = benchlib.detect_layer_metrics(report, nproc())
    layer_self, root_self = benchlib.layer_accounting(report)
    overhead = traced_wall - result["metrics"]["detect_s"]
    unexplained = traced_wall - sum(layer_self.values())
    layers["trace.overhead_s"] = overhead
    layers["trace.unexplained_s"] = unexplained
    result["layers"] = layers
    result["info"]["spans_file"] = report_path
    log(f"{name}: traced {traced_wall:.3f}s = "
        + " + ".join(f"{k} {v:.3f}s" for k, v in layer_self.items())
        + f" + unexplained {unexplained:.3f}s "
        f"(of which in-run outside layers {root_self:.3f}s); "
        f"detect_s {result['metrics']['detect_s']:.3f}s = traced - "
        f"overhead {overhead:.3f}s")


def read_cycle_events(ledger_path):
    with open(ledger_path, "rb") as fh:
        return [l for l in fh.read().split(b"\n")
                if b'"event": "cycle"' in l]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def serve_harness_cmd(bins, cfg, staging, rep_dir, roster, report, trace,
                      run_id):
    cmd = [bins["harness"], "serve", f"--staging={staging}",
           f"--work={rep_dir}", f"--roster={roster}", f"--report-out={report}",
           f"--window-days={cfg['window_days']}",
           f"--train-days={cfg['train_days']}", f"--omega={cfg['omega']}",
           f"--epochs={cfg['epochs']}", f"--shards={cfg['shards']}",
           f"--run-id={run_id}"]
    return cmd + (["--trace"] if trace else [])


def run_serve(bins, name, cfg, args, work, result):
    checks = result["checks"]
    data = os.path.join(work, "data")
    staging = os.path.join(work, "staging")
    gen_s = generate(bins, cfg, args.seed, data, result)
    t_split = time.monotonic()
    batches = benchlib.split_into_batches(data, staging)
    split_s = time.monotonic() - t_split
    roster = os.path.join(data, "ldap.csv")

    def timed_rep(i):
        rep_dir = os.path.join(work, f"rep-{i}")
        report_path = rep_dir + ".json"
        os.sync()  # earlier writes must not flush inside the timing
        ran = attempt(serve_harness_cmd(
            bins, cfg, staging, rep_dir, roster, report_path, False,
            f"{name}-{args.seed}-{i}"), "serve harness run", result)
        if ran is None:
            return []
        with open(report_path) as fh:
            rep = json.load(fh)
        rep["wall"] = ran[0]
        rep["dir"] = rep_dir
        return [rep]

    # The reference, one acobe_serve --drain over every batch at once,
    # runs between the first timed repetition and the rest, so that a
    # run's samples come from moments further apart.
    n_reps = repetitions("serve", cfg, args)
    reps = timed_rep(0)
    ref_watch = os.path.join(work, "ref-watch")
    ref_out = os.path.join(work, "ref-out")
    shutil.copytree(staging, ref_watch)
    for b in batches:
        open(os.path.join(ref_watch, b, "READY"), "w").close()
    if attempt(
            [bins["acobe_serve"], f"--watch={ref_watch}", f"--out={ref_out}",
             f"--roster={roster}", f"--window-days={cfg['window_days']}",
             f"--train-days={cfg['train_days']}", f"--omega={cfg['omega']}",
             f"--epochs={cfg['epochs']}", f"--shards={cfg['shards']}",
             "--drain"],
            "acobe_serve --drain", result) is None:
        raise BenchError("acobe_serve --drain failed")
    ref_alerts = read_bytes(os.path.join(ref_out, "alerts.jsonl"))
    ref_cycles = read_cycle_events(os.path.join(ref_out, "ledger.jsonl"))
    for i in range(1, n_reps):
        reps += timed_rep(i)
    if not reps:
        raise BenchError("every serve harness run failed")
    for i, rep in enumerate(reps):
        out = os.path.join(rep["dir"], "out")
        checks[f"rep {i} alerts.jsonl == acobe_serve --drain"] = \
            read_bytes(os.path.join(out, "alerts.jsonl")) == ref_alerts
        checks[f"rep {i} ledger cycle events == acobe_serve --drain"] = \
            read_cycle_events(os.path.join(out, "ledger.jsonl")) == ref_cycles
        scored = [c for c in rep["cycles"] if c["scored"]]
        checks[f"rep {i} has >= {cfg['min_scored']} scored cycles"] = \
            len(scored) >= cfg["min_scored"]
        for c in rep["cycles"]:
            result["attempted"] += 1
            if (c["departments_scored"] < c["departments_expected"]
                    or c["events_shed"] or c["shard_failures"]
                    or c["shards_quarantined"] or c["events_dropped"]):
                result["failed"] += 1
    samples = [c["wall_s"] for rep in reps for c in rep["cycles"]
               if c["scored"]]
    n = len(samples)
    beyond = benchlib.samples_beyond(n, 90)
    auc_list = os.path.join(work, "alerts-ranked.out")
    with open(auc_list, "w") as fh, open(roster) as rfh:
        rows = [l.rstrip("\n").split(",")[:2] for l in rfh.readlines()[1:]]
        alerts = [json.loads(l) for l in ref_alerts.decode().splitlines()]
        fh.write(benchlib.alerts_as_list(alerts, rows))
    start_warm = [r["counts"]["start_s"] + r["counts"]["warmup_s"]
                  for r in reps]
    result["info"].update(cycle_samples=n, samples_beyond_p90=beyond,
                          serve_reps=len(reps), batches=len(batches))
    result["metrics"] = {
        "detect_s": statistics.median(r["wall"] for r in reps),
        "peak_rss_mb": statistics.median(
            r["counts"]["peak_rss_bytes"] / 2**20 for r in reps),
        "insider_auc": mean_auc(bins, auc_list,
                                os.path.join(data, "truth.csv")),
        "cycle_s.p50": benchlib.nearest_rank(samples, 50),
        "cycle_s.p90": benchlib.nearest_rank(samples, 90),
        "setup_s": gen_s + split_s + statistics.median(start_warm),
    }
    log(f"{name}: {len(reps)} reps, {n} scored cycles "
        f"({beyond} beyond p90), p50 {result['metrics']['cycle_s.p50']:.4f}s")
    if not args.trace:
        return

    rep_dir = os.path.join(work, "traced")
    report_path = rep_dir + ".json"
    ran = attempt(serve_harness_cmd(
        bins, cfg, staging, rep_dir, roster, report_path, True,
        f"{name}-{args.seed}-traced"), "traced harness run", result)
    if ran is None:
        raise BenchError("the traced run failed")
    traced_wall = ran[0]
    checks["traced alerts.jsonl == acobe_serve --drain"] = read_bytes(
        os.path.join(rep_dir, "out", "alerts.jsonl")) == ref_alerts
    with open(report_path) as fh:
        report = json.load(fh)
    layers = benchlib.serve_layer_metrics(report)
    by_name = benchlib.self_time_by_name(report["spans"])
    covered = sum(v for k, v in by_name.items() if k.startswith("service."))
    layers["trace.overhead_s"] = traced_wall - statistics.median(
        r["wall"] for r in reps)
    layers["trace.unexplained_s"] = traced_wall - covered
    result["layers"] = layers
    result["info"]["spans_file"] = report_path


def metric_units(trace):
    """The metrics this run reports, with units, from BENCHMARK.json."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(SIZES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args()

    try:
        units = metric_units(args.trace)
        bins = build()
        stamp = subprocess.run([bins["acobe_detect"], "--version"],
                               stdout=subprocess.PIPE, check=True
                               ).stdout.decode().strip()
        work = os.path.join(WORK_DIR, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        cfg = SIZES[args.size][args.workload]
        result = {"attempted": 0, "failed": 0, "checks": {}, "info": {},
                  "metrics": {}, "layers": {}}
        runner = run_serve if args.workload == "serve-cycles" else run_detect
        runner(bins, args.workload, cfg, args, work, result)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        return 2

    correct = all(result["checks"].values())
    for what, ok in result["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {what}")
    values = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for metric, unit in units.items():
        metrics[metric] = {"value": values.get(metric, 0.0), "unit": unit}
        print(f"{metric:28s} {metrics[metric]['value']:>16.6g} {unit}")
    print("stamp " + json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "nproc": nproc(), "build": stamp, **result["info"],
        "end_to_end": result["metrics"]}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
