"""Pure helpers of the benchmark: percentiles, span self times, layer
metrics, batch splitting. Kept free of process handling so that
test_benchlib.py can check them directly."""

import math
import os
import statistics

DAY = 86400
EVENT_CSVS = ["device.csv", "file.csv", "http.csv", "logon.csv"]

# Span names the harness records, by layer. A layer's time is the sum of
# its spans' self times.
LAYER_SPANS = {
    "logs": ["logs.read", "logs.sort", "logs.spool_finish"],
    "features": ["features.replay"],
    "behavior": ["behavior.deviation"],
    "core": ["core.train", "core.score", "core.calibrate", "core.rank"],
}


def nearest_rank(values, p):
    """Nearest-rank percentile p (0 < p <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples that lie above the nearest-rank percentile p of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def self_times(spans):
    """Per span id, its duration minus the part of its interval that its
    child spans cover (children clipped to the parent, overlaps merged)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_time_by_name(spans):
    """Summed self time per span name."""
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + selfs[s["id"]]
    return totals


def ratio(num, den):
    return num / den if den > 0 else 0.0


def detect_layer_metrics(report, nproc):
    """Per-layer metrics of one traced detect run (harness report)."""
    counts = report["counts"]
    by_name = self_time_by_name(report["spans"])
    t = lambda name: by_name.get(name, 0.0)
    read_s, train_s, score_s = t("logs.read"), t("core.train"), t("core.score")
    root = next(s for s in report["spans"] if s["parent"] == -1)
    gflop = counts["nn.gemm_flops"] / 1e9
    return {
        "logs.read_s": read_s,
        "logs.rows": counts["logs.rows"],
        "logs.rows_per_s": ratio(counts["logs.rows"], read_s),
        "logs.rows_rejected": counts["logs.rows_rejected"],
        "logs.sort_s": t("logs.sort"),
        "logs.spool_finish_s": t("logs.spool_finish"),
        "logs.spool_mb": counts["logs.spool_bytes"] / 1e6,
        "features.replay_s": t("features.replay"),
        "features.events_per_s": ratio(counts["features.events"],
                                       t("features.replay")),
        "behavior.deviation_s": t("behavior.deviation"),
        "behavior.cells": counts["behavior.cells"],
        "core.train_s": train_s,
        "core.train.cpu_util": ratio(counts["core.train_cpu_s"],
                                     train_s * nproc),
        "core.score_s": score_s,
        "core.score.cpu_util": ratio(counts["core.score_cpu_s"],
                                     score_s * nproc),
        "core.calibrate_s": t("core.calibrate"),
        "core.rank_s": t("core.rank"),
        "core.train_share": ratio(train_s, root["end"] - root["start"]),
        "nn.gemm_gflop": gflop,
        "nn.epochs": counts["nn.epochs"],
        "nn.train_gflops_per_s": ratio(gflop, train_s),
    }


def serve_layer_metrics(report):
    """Per-layer metrics of one traced serve run (harness report). Only
    scored cycles enter the per-cycle medians."""
    counts = report["counts"]
    scored = {c["batch"] for c in report["cycles"] if c["scored"]}
    stats = [s for s in report["cycle_stats"] if s["batch"] in scored]
    med = lambda key: statistics.median(s[key] for s in stats) if stats else 0.0
    train_s = sum(s["train_s"] for s in stats)
    total_s = sum(s["total_s"] for s in stats)
    gflop = counts["nn.gemm_flops"] / 1e9
    return {
        "service.start_s": counts["start_s"],
        "service.cycle.ingest_s": med("ingest_s"),
        "service.cycle.train_s": med("train_s"),
        "service.cycle.score_s": med("score_s"),
        "service.cycle.commit_s": med("commit_s"),
        "service.events_admitted": float(sum(
            s["events_admitted"] for s in report["cycle_stats"])),
        "service.events_shed": counts["service.events_shed"],
        "service.queue_peak_rows": counts["service.queue_peak_rows"],
        "service.shard_failures": counts["service.shard_failures"],
        "core.train_s": train_s,
        "core.score_s": sum(s["score_s"] for s in stats),
        "core.train_share": ratio(train_s, total_s),
        "nn.gemm_gflop": gflop,
        "nn.epochs": counts["nn.epochs"],
        "nn.train_gflops_per_s": ratio(gflop, train_s),
    }


def layer_accounting(report):
    """Self time per layer plus the traced time no layer span covers."""
    by_name = self_time_by_name(report["spans"])
    layers = {layer: sum(by_name.get(n, 0.0) for n in names)
              for layer, names in LAYER_SPANS.items()}
    root = next(s for s in report["spans"] if s["parent"] == -1)
    return layers, (root["end"] - root["start"]) - sum(layers.values())


def alerts_as_list(alerts_lines, roster_rows):
    """Renders daemon alerts as printed investigation lists: per roster
    department, users ranked by their highest alert peak_score; users
    without an alert share the last priority."""
    peak = {}
    for a in alerts_lines:
        peak[a["user"]] = max(peak.get(a["user"], 0.0), a["peak_score"])
    depts = {}
    for user, dept in roster_rows:
        depts.setdefault(dept, []).append(user)
    out = []
    for dept, users in depts.items():
        alerted = sorted((u for u in users if u in peak),
                         key=lambda u: (-peak[u], u))
        quiet = [u for u in users if u not in peak]
        out.append(f"\n=== {dept} ({len(users)} users) ===")
        for i, u in enumerate(alerted + quiet):
            priority = min(i, len(alerted)) + 1
            out.append(f"{i + 1:3d}. {u:<10} priority {priority}")
    return "\n".join(out) + "\n"


def split_into_batches(data_dir, staging_dir):
    """Splits the event CSVs into one batch directory per day, named
    batch-NNN (release order = name order). Returns the names."""
    headers, rows, lo = {}, {}, None
    for name in EVENT_CSVS:
        with open(os.path.join(data_dir, name)) as fh:
            headers[name] = fh.readline()
            rows[name] = fh.readlines()
        for line in rows[name]:
            d = int(line.split(",", 1)[0]) // DAY
            lo = d if lo is None or d < lo else lo
    batches = {}
    for name in EVENT_CSVS:
        for line in rows[name]:
            b = int(line.split(",", 1)[0]) // DAY - lo
            batches.setdefault(b, {n: [] for n in EVENT_CSVS})[name].append(line)
    names = []
    for b in sorted(batches):
        bname = f"batch-{b:03d}"
        os.makedirs(os.path.join(staging_dir, bname))
        for name in EVENT_CSVS:
            with open(os.path.join(staging_dir, bname, name), "w") as fh:
                fh.write(headers[name])
                fh.writelines(batches[b][name])
        names.append(bname)
    return names
