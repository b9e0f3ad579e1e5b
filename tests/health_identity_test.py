#!/usr/bin/env python3
"""End-to-end check that the health plane is purely observational.

Generates a small dataset, then runs acobe_detect twice on it — once
with --health-out/--prom-out, once without — and asserts:

  - stdout is byte-identical between the two runs,
  - the --explain-out reports are byte-identical,
  - the --ledger-out ledgers are byte-identical after stripping the
    run_complete fields that are wall-clock-dependent by design
    (peak_rss_bytes, stages) — those differ between ANY two runs, with
    or without the health plane, so they are normalized, not ignored
    silently: the script still checks both ledgers carry them,
  - the heartbeat file validates under tools/check_health.py
    (--require-final), and acobe_top --once renders it,
  - the Prometheus exposition contains acobe_-prefixed samples and,
    when --check-prom is given, passes the full format 0.0.4 validator
    (tools/check_prom.py),
  - the acobe_detect CLI contract holds: --version names the resolved
    GEMM thread count, and the retired backend-selection flag is a
    usage error (exit 2),
  - stdout and the --metrics-out series are byte-identical at
    --threads=1 and --threads=4, in memory and with --stream --shards=2,
    on three departments that train concurrently, and both modes report
    the same features.users gauge,
  - a run whose events fit the spool buffer touches no disk: default
    runs leave no DIR/.acobe-spool behind, an under-cap --stream run
    leaves no --spool-dir behind, and one whose --spool-dir could not
    even be created (its parent is a regular file) still succeeds.

Usage:
    health_identity_test.py --gen GEN --detect DETECT --top TOP \
        --check-health CHECK_HEALTH_PY [--check-prom CHECK_PROM_PY]

Exit status 0 on pass, 1 on any mismatch or tool failure.
"""

import argparse
import json
import subprocess
import sys
import tempfile
import os


def run(cmd, stdout_path=None):
    if stdout_path is None:
        proc = subprocess.run(cmd, capture_output=True)
    else:
        with open(stdout_path, "wb") as out:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return proc


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def normalized_ledger(path):
    """Ledger lines with the run_complete wall-clock fields stripped.

    Returns (normalized_text, had_health_fields)."""
    lines = []
    had_fields = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            event = json.loads(line)
            if event.get("event") == "run_complete":
                had_fields = ("peak_rss_bytes" in event and "stages" in event)
                event.pop("peak_rss_bytes", None)
                event.pop("stages", None)
            lines.append(json.dumps(event, sort_keys=True))
    return "\n".join(lines), had_fields


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gen", required=True)
    ap.add_argument("--detect", required=True)
    ap.add_argument("--top", required=True)
    ap.add_argument("--check-health", required=True)
    ap.add_argument("--check-prom", default=None)
    args = ap.parse_args()

    version = run([args.detect, "--nn-threads=3", "--version"])
    if b"nn-threads: 3" not in version.stdout:
        print(f"FAIL: --version lacks nn-threads: {version.stdout!r}",
              file=sys.stderr)
        return 1
    # With --version after it, a still-accepted flag would exit 0.
    retired = subprocess.run(
        [args.detect, "--nn-backend=default", "--version"],
        capture_output=True)
    if retired.returncode != 2:
        print(f"FAIL: retired backend flag exited {retired.returncode}, "
              "expected 2 (usage)", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="acobe-health-id-") as tmp:
        data = os.path.join(tmp, "data")
        os.makedirs(data)
        run([args.gen, f"--out={data}", "--users=12", "--departments=3",
             "--seed=11", "--rate=0.3", "--start=2010-01-02",
             "--end=2010-03-17"])

        def detect(tag, extra):
            out = os.path.join(tmp, f"{tag}.out")
            run([args.detect, f"--in={data}", "--train-end=2010-02-16",
                 "--epochs=2", "--threads=2",
                 f"--explain-out={os.path.join(tmp, tag + '.explain.json')}",
                 f"--ledger-out={os.path.join(tmp, tag + '.ledger.jsonl')}"]
                + extra, stdout_path=out)
            return out

        health = os.path.join(tmp, "health.jsonl")
        prom = os.path.join(tmp, "metrics.prom")
        plain_out = detect("plain", [])
        health_out = detect("health", [f"--health-out={health}",
                                       "--health-interval-ms=50",
                                       f"--prom-out={prom}"])

        if read_bytes(plain_out) != read_bytes(health_out):
            print("FAIL: stdout differs with the health plane on",
                  file=sys.stderr)
            return 1

        # The streaming path exercises the stage-re-entry logic (the
        # shard loop alternates replay <-> detect); check it too.
        stream_health = os.path.join(tmp, "stream.health.jsonl")
        # The parent of this spool dir is a regular file, so creating
        # it would fail: the run passes only if it never spills.
        blocker = os.path.join(tmp, "blocker")
        with open(blocker, "w"):
            pass
        stream_plain = detect("stream_plain",
                              ["--stream", "--shards=3",
                               f"--spool-dir={blocker}/spool"])
        stream_on = detect("stream_health",
                           ["--stream", "--shards=3",
                            f"--health-out={stream_health}",
                            "--health-interval-ms=50"])
        if read_bytes(stream_plain) != read_bytes(stream_on):
            print("FAIL: streamed stdout differs with the health plane on",
                  file=sys.stderr)
            return 1
        run([sys.executable, args.check_health, stream_health,
             "--require-final"])
        if read_bytes(os.path.join(tmp, "plain.explain.json")) != \
                read_bytes(os.path.join(tmp, "health.explain.json")):
            print("FAIL: explain report differs with the health plane on",
                  file=sys.stderr)
            return 1
        plain_ledger, plain_has = normalized_ledger(
            os.path.join(tmp, "plain.ledger.jsonl"))
        health_ledger, health_has = normalized_ledger(
            os.path.join(tmp, "health.ledger.jsonl"))
        if not plain_has or not health_has:
            print("FAIL: run_complete lacks peak_rss_bytes/stages",
                  file=sys.stderr)
            return 1
        if plain_ledger != health_ledger:
            print("FAIL: normalized ledger differs with the health plane on",
                  file=sys.stderr)
            return 1

        # All departments train at once as one job graph; nothing the
        # run reports may depend on the worker count.
        spool_probe = os.path.join(tmp, "spool-probe")
        users = {}
        for mode, extra in (("memory", []),
                            ("stream", ["--stream", "--shards=2",
                                        f"--spool-dir={spool_probe}"])):
            outs, series = [], []
            for threads in (1, 4):
                tag = f"{mode}_t{threads}"
                metrics = os.path.join(tmp, tag + ".metrics.json")
                outs.append(read_bytes(detect(
                    tag, extra + [f"--threads={threads}",
                                  f"--metrics-out={metrics}"])))
                with open(metrics, encoding="utf-8") as f:
                    doc = json.load(f)
                series.append(doc["series"])
                users[mode] = doc["gauges"].get("features.users")
            if outs[0].count(b"=== ") < 3:
                print(f"FAIL: {mode} run listed fewer than 3 departments",
                      file=sys.stderr)
                return 1
            if outs[0] != outs[1]:
                print(f"FAIL: {mode} stdout differs at --threads=1 and "
                      "--threads=4", file=sys.stderr)
                return 1
            if not series[0] or series[0] != series[1]:
                print(f"FAIL: {mode} --metrics-out series differ at "
                      "--threads=1 and --threads=4", file=sys.stderr)
                return 1
        if not users["memory"] or users["memory"] != users["stream"]:
            print(f"FAIL: features.users differs by mode: {users}",
                  file=sys.stderr)
            return 1
        for leftover in (os.path.join(data, ".acobe-spool"), spool_probe):
            if os.path.exists(leftover):
                print(f"FAIL: an under-cap run left {leftover} behind",
                      file=sys.stderr)
                return 1

        run([sys.executable, args.check_health, health, "--require-final"])
        top = run([args.top, health, "--once"])
        rendered = top.stdout.decode(errors="replace")
        if "acobe-detect" not in rendered or "stage" not in rendered:
            print(f"FAIL: acobe_top render looks wrong:\n{rendered}",
                  file=sys.stderr)
            return 1
        prom_text = read_bytes(prom).decode(errors="replace")
        if "# TYPE acobe_" not in prom_text:
            print("FAIL: Prometheus exposition has no acobe_ samples",
                  file=sys.stderr)
            return 1
        if args.check_prom:
            run([sys.executable, args.check_prom, prom,
                 "--require-prefix=acobe_", "--min-samples=10"])

    print("health_identity_test: OK — output byte-identical with the "
          "health plane on and at 1 and 4 threads; heartbeats, top render "
          "and prom export valid")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print(f"health_identity_test: {e}", file=sys.stderr)
        sys.exit(1)
