#!/usr/bin/env python3
"""Distill a google-benchmark JSON dump into the BENCH_splice.json
trajectory at the repo root.

Usage: bench_distill.py RAW_JSON TRAJECTORY_JSON [--quick] [--check]
                        [--manifest PATH] [--speed PATH]

The trajectory file is a JSON array, one entry per bench.sh run:

    {
      "date": "2026-08-05T12:34:56Z",
      "commit": "abc1234...",
      "quick": false,
      "splices_per_sec": {"dfs": ..., "flat": ..., "reference": ...},
      "pairs_per_sec":   {"dfs": ..., "flat": ..., "reference": ...},
      "speedup_dfs_vs_flat": ...,
      "speedup_dfs_vs_reference": ...,
      "manifest": { ... },  # optional: telemetry run-manifest summary
      "kernel_throughput": {"crc32": {"scalar": ..., "slicing": ...,
                                      "swar": ...}, ...},  # optional
      "generate_bytes_per_sec": ...  # optional
    }

A missing, empty, or whitespace-only trajectory file starts a fresh
array; a non-empty file that is not valid JSON is an error (the file
is left untouched rather than clobbered). Entries are validated
against the schema above before the file is rewritten — a malformed
new entry aborts, malformed pre-existing entries only warn.

--manifest ingests a cksum-metrics/1 run manifest (produced by
`cksumlab splice --metrics-out`, see docs/OBSERVABILITY.md) and
records its headline numbers under the entry's "manifest" key.

--speed ingests a bench_speed JSON dump (BM_Kernel_<alg>_<kernel>
rows, see bench/bench_speed.cpp) and records the 64 KiB bulk
throughput per algorithm per kernel under "kernel_throughput".

--check exits non-zero if the new DFS rate fell below 1/5 of the
previous entry's, if the DFS evaluator is slower than the flat one,
or (when --speed is given) if slicing-by-8 CRC-32 is less than 3x the
scalar byte-table kernel — the locally recorded trajectory entries
show >=4x, the gate is looser only to absorb CI-runner noise. The
--speed gates also compare the block-at-a-time Koopman dual sum
against byte-at-a-time Fletcher-256 (want >= 1.2x on the slicing
tier; locally ~1.8x) — rows absent from the dump skip the gate with
a notice, matching the chorba/clmul pattern.

The BM_GenerateFilesystem row (file generation alone over the
BM_RunFilesystem corpus) is recorded as "generate_bytes_per_sec"; no
gate reads it.

The BM_RunCorpusStreamed rows (end-to-end splice run streamed from a
sealed corpus store, see docs/CORPUS.md) ride along under the entry's
"streaming" key, and --check holds streaming to >=0.95x the in-memory
BM_RunFilesystem rate per worker. The 8-thread aggregate gate
(>=4x the 1-thread streamed rate) only arms when the recorded
hw_threads is >=8 — on smaller machines it skips with a notice.
"""

import argparse
import datetime
import json
import subprocess
import sys

BENCH_KEYS = {
    "BM_SpliceDfs": "dfs",
    "BM_SpliceFlat": "flat",
    "BM_SpliceReference": "reference",
}

MANIFEST_SCHEMA = "cksum-metrics/1"


def load_trajectory(path):
    """Parse the trajectory array. Returns (entries, error)."""
    try:
        with open(path) as f:
            text = f.read()
    except FileNotFoundError:
        return [], None
    if not text.strip():
        return [], None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        return None, f"{path} is not valid JSON ({e}); not overwriting"
    if not isinstance(data, list):
        return None, f"{path} is not a JSON array; not overwriting"
    return data, None


def validate_entry(entry):
    """Schema problems with one trajectory entry, [] when clean."""
    problems = []
    if not isinstance(entry, dict):
        return ["entry is not an object"]
    for key in ("date", "commit"):
        if not isinstance(entry.get(key), str) or not entry.get(key):
            problems.append(f"{key!r} missing or not a non-empty string")
    if not isinstance(entry.get("quick"), bool):
        problems.append("'quick' missing or not a bool")
    for key in ("splices_per_sec", "pairs_per_sec"):
        rates = entry.get(key)
        if not isinstance(rates, dict):
            problems.append(f"{key!r} missing or not an object")
            continue
        for bench in BENCH_KEYS.values():
            if not isinstance(rates.get(bench), (int, float)):
                problems.append(f"{key!r}[{bench!r}] missing or not a number")
    for key in ("speedup_dfs_vs_flat", "speedup_dfs_vs_reference"):
        if not isinstance(entry.get(key), (int, float)):
            problems.append(f"{key!r} missing or not a number")
    if "manifest" in entry and not isinstance(entry["manifest"], dict):
        problems.append("'manifest' present but not an object")
    if "streaming" in entry:
        s = entry["streaming"]
        if not isinstance(s, dict):
            problems.append("'streaming' present but not an object")
        else:
            for key in ("in_memory_per_sec", "streamed_per_sec"):
                rates = s.get(key)
                if not isinstance(rates, dict) or not all(
                        isinstance(v, (int, float)) for v in rates.values()):
                    problems.append(f"'streaming'[{key!r}] not an object of "
                                    f"numbers")
            if not isinstance(s.get("hw_threads"), int):
                problems.append("'streaming'['hw_threads'] missing or not "
                                "an int")
    if "generate_bytes_per_sec" in entry and not isinstance(
            entry["generate_bytes_per_sec"], (int, float)):
        problems.append("'generate_bytes_per_sec' present but not a number")
    if "kernel_throughput" in entry:
        kt = entry["kernel_throughput"]
        if not isinstance(kt, dict):
            problems.append("'kernel_throughput' present but not an object")
        else:
            for alg, per_kernel in kt.items():
                if not isinstance(per_kernel, dict) or not all(
                        isinstance(v, (int, float))
                        for v in per_kernel.values()):
                    problems.append(
                        f"'kernel_throughput'[{alg!r}] not an object of "
                        f"numbers")
    return problems


# Bulk-buffer argument whose bytes/sec becomes the recorded throughput.
SPEED_BULK_ARG = "65536"


def speed_throughput(path):
    """kernel_throughput family from a bench_speed JSON dump.

    Rows are named BM_Kernel_<alg>_<kernel>/<bytes>; only the bulk
    (64 KiB) rows are recorded. Returns (family, error).
    """
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, f"cannot read speed dump {path}: {e}"
    family = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name", "")
        base, _, arg = name.partition("/")
        parts = base.split("_")
        if len(parts) != 4 or parts[:2] != ["BM", "Kernel"]:
            continue
        if arg != SPEED_BULK_ARG:
            continue
        bps = b.get("bytes_per_second")
        if not isinstance(bps, (int, float)):
            return None, f"speed dump {path}: {name} has no bytes_per_second"
        family.setdefault(parts[2], {})[parts[3]] = bps
    if not family:
        return None, (f"speed dump {path}: no BM_Kernel_* rows at "
                      f"/{SPEED_BULK_ARG} — was bench_speed run with "
                      f"--benchmark_filter='BM_Kernel_'?")
    return family, None


def manifest_summary(path):
    """Headline numbers from a cksum-metrics/1 run manifest.

    Returns (summary, error); validation failures are errors because a
    bad manifest means the telemetry pipeline itself is broken.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return None, f"cannot read manifest {path}: {e}"
    if not isinstance(doc, dict) or doc.get("schema") != MANIFEST_SCHEMA:
        got = doc.get("schema") if isinstance(doc, dict) else type(doc)
        return None, (f"manifest {path}: schema is {got!r}, "
                      f"want {MANIFEST_SCHEMA!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return None, f"manifest {path}: 'metrics' missing"

    def value(name):
        m = metrics.get(name)
        return m.get("value") if isinstance(m, dict) else None

    for name in ("splice.total", "splice.pairs"):
        if not isinstance(value(name), int):
            return None, f"manifest {path}: metric {name!r} missing"
    fast = value("splice.fast_path") or 0
    slow = value("splice.slow_path") or 0
    evaluated = fast + slow
    return {
        "tool": doc.get("tool"),
        "corpus": doc.get("corpus"),
        "threads": doc.get("threads"),
        "git": doc.get("git"),
        "wall_seconds": doc.get("wall_seconds"),
        "splices": value("splice.total"),
        "pairs": value("splice.pairs"),
        "fast_path_fraction": fast / evaluated if evaluated else None,
    }, None


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("raw", help="google-benchmark --benchmark_out JSON")
    ap.add_argument("trajectory", help="BENCH_splice.json to append to")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--manifest", metavar="PATH",
                    help="cksum-metrics/1 run manifest to summarize "
                         "into the entry")
    ap.add_argument("--speed", metavar="PATH",
                    help="bench_speed JSON dump whose BM_Kernel_* rows "
                         "become the entry's kernel_throughput family")
    args = ap.parse_args()

    with open(args.raw) as f:
        raw = json.load(f)

    splices = {}
    pairs = {}
    streaming = {"in_memory_per_sec": {}, "streamed_per_sec": {}}
    hw_threads = None
    generate_rate = None
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name", "")
        if name.split("/")[0] == "BM_GenerateFilesystem":
            generate_rate = b.get("bytes_per_second")
            continue
        key = BENCH_KEYS.get(name.split("/")[0])
        if key is not None:
            splices[key] = b.get("items_per_second")
            pairs[key] = b.get("pairs_per_sec")
            continue
        # End-to-end rows: BM_RunFilesystem/<threads>[/real_time] and
        # BM_RunCorpusStreamed/<threads>[/real_time].
        parts = name.split("/")
        family = {"BM_RunFilesystem": "in_memory_per_sec",
                  "BM_RunCorpusStreamed": "streamed_per_sec"}.get(parts[0])
        if family is None or len(parts) < 2:
            continue
        rate = b.get("items_per_second")
        if isinstance(rate, (int, float)):
            streaming[family][parts[1]] = rate
        ht = b.get("hw_threads")
        if isinstance(ht, (int, float)):
            hw_threads = int(ht)

    missing = [k for k in BENCH_KEYS.values() if splices.get(k) is None]
    if missing:
        print(f"bench_distill: missing benchmarks: {missing}", file=sys.stderr)
        return 1

    entry = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commit": git_commit(),
        "quick": args.quick,
        "splices_per_sec": splices,
        "pairs_per_sec": pairs,
        "speedup_dfs_vs_flat": splices["dfs"] / splices["flat"],
        "speedup_dfs_vs_reference": splices["dfs"] / splices["reference"],
    }

    if generate_rate is not None:
        entry["generate_bytes_per_sec"] = generate_rate

    if streaming["streamed_per_sec"] and hw_threads is not None:
        entry["streaming"] = dict(streaming, hw_threads=hw_threads)

    if args.manifest:
        summary, err = manifest_summary(args.manifest)
        if err:
            print(f"bench_distill: {err}", file=sys.stderr)
            return 1
        entry["manifest"] = summary

    if args.speed:
        family, err = speed_throughput(args.speed)
        if err:
            print(f"bench_distill: {err}", file=sys.stderr)
            return 1
        entry["kernel_throughput"] = family

    problems = validate_entry(entry)
    if problems:
        for p in problems:
            print(f"bench_distill: new entry invalid: {p}", file=sys.stderr)
        return 1

    trajectory, err = load_trajectory(args.trajectory)
    if err:
        print(f"bench_distill: {err}", file=sys.stderr)
        return 1
    for i, old in enumerate(trajectory):
        for p in validate_entry(old):
            print(f"bench_distill: warning: {args.trajectory} entry "
                  f"#{i + 1}: {p}", file=sys.stderr)

    previous = trajectory[-1] if trajectory else None
    trajectory.append(entry)
    with open(args.trajectory, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")

    print(f"dfs:       {splices['dfs']:.3e} splices/sec")
    print(f"flat:      {splices['flat']:.3e} splices/sec "
          f"({entry['speedup_dfs_vs_flat']:.1f}x slower than dfs)")
    print(f"reference: {splices['reference']:.3e} splices/sec "
          f"({entry['speedup_dfs_vs_reference']:.1f}x slower than dfs)")
    if "manifest" in entry:
        m = entry["manifest"]
        frac = m["fast_path_fraction"]
        print(f"manifest:  {m['splices']:,} splices / {m['pairs']:,} pairs "
              f"on {m['corpus']} in {m['wall_seconds']:.3f}s "
              f"({100.0 * frac:.2f}% fast path)" if frac is not None else
              f"manifest:  {m['splices']:,} splices / {m['pairs']:,} pairs "
              f"on {m['corpus']}")
    if "kernel_throughput" in entry:
        for alg, per_kernel in sorted(entry["kernel_throughput"].items()):
            rates = ", ".join(f"{k} {v / 1e9:.2f} GB/s"
                              for k, v in sorted(per_kernel.items()))
            print(f"kernel {alg}: {rates}")
    if "generate_bytes_per_sec" in entry:
        print(f"generate:  {entry['generate_bytes_per_sec'] / 1e6:.1f} MB/s "
              f"(nsc05 files, generation only)")
    if "streaming" in entry:
        s = entry["streaming"]
        mem1 = s["in_memory_per_sec"].get("1")
        str1 = s["streamed_per_sec"].get("1")
        if mem1 and str1:
            print(f"streaming: {str1:.3e} splices/sec from the corpus "
                  f"store vs {mem1:.3e} in-memory at 1 thread "
                  f"({str1 / mem1:.2f}x, {s['hw_threads']} hw threads)")
    print(f"appended entry #{len(trajectory)} to {args.trajectory}")

    if args.check:
        ok = True
        crc = entry.get("kernel_throughput", {}).get("crc32", {})
        if crc.get("scalar") and crc.get("slicing"):
            ratio = crc["slicing"] / crc["scalar"]
            if ratio < 3.0:
                print(f"CHECK FAILED: slicing-by-8 CRC-32 only {ratio:.2f}x "
                      f"scalar (want >=3x)", file=sys.stderr)
                ok = False
        # Folding/tableless tier gates, against the slicing baseline.
        # A missing row means bench_speed skipped the kernel as
        # unavailable on this machine — notice, not failure (the CI
        # clmul leg checks availability explicitly before relying on
        # this gate).
        for kern_name, floor in (("chorba", 1.5), ("clmul", 5.0)):
            if not crc.get(kern_name):
                print(f"CHECK NOTICE: no crc32/{kern_name} row "
                      f"(kernel unavailable on this machine); "
                      f"{kern_name} gate skipped", file=sys.stderr)
                continue
            if not crc.get("slicing"):
                continue
            ratio = crc[kern_name] / crc["slicing"]
            if ratio < floor:
                print(f"CHECK FAILED: {kern_name} CRC-32 only {ratio:.2f}x "
                      f"slicing (want >={floor}x)", file=sys.stderr)
                ok = False
        # Large-block family gate: the Koopman dual sum digests 8
        # bytes per step, so it must clearly beat byte-at-a-time
        # Fletcher-256 on the same tier. Rows are absent when
        # bench_speed ran with an older row set or a narrow filter —
        # notice, not failure.
        kt = entry.get("kernel_throughput", {})
        kdual = kt.get("koopmandual", {}).get("slicing")
        f256 = kt.get("fletcher256", {}).get("slicing")
        if not kdual or not f256:
            print("CHECK NOTICE: no koopmandual/fletcher256 slicing rows "
                  "in the speed dump; Koopman-vs-Fletcher gate skipped",
                  file=sys.stderr)
        else:
            ratio = kdual / f256
            if ratio < 1.2:
                print(f"CHECK FAILED: Koopman dual sum only {ratio:.2f}x "
                      f"Fletcher-256 on the slicing tier (want >=1.2x)",
                      file=sys.stderr)
                ok = False
        # Streaming-corpus gates: the store bakes packetisation in at
        # build time, so streaming must not lose more than noise per
        # worker, and must actually scale when the machine can.
        s = entry.get("streaming")
        if not s:
            print("CHECK NOTICE: no BM_RunCorpusStreamed rows in the "
                  "dump; streaming gates skipped", file=sys.stderr)
        else:
            mem1 = s["in_memory_per_sec"].get("1")
            str1 = s["streamed_per_sec"].get("1")
            str8 = s["streamed_per_sec"].get("8")
            if mem1 and str1:
                ratio = str1 / mem1
                if ratio < 0.95:
                    print(f"CHECK FAILED: corpus-streamed run only "
                          f"{ratio:.2f}x the in-memory rate at 1 thread "
                          f"(want >=0.95x)", file=sys.stderr)
                    ok = False
            if str1 and str8:
                if s["hw_threads"] < 8:
                    print(f"CHECK NOTICE: machine has "
                          f"{s['hw_threads']} hw thread(s); 8-worker "
                          f"aggregate gate skipped", file=sys.stderr)
                else:
                    ratio = str8 / str1
                    if ratio < 4.0:
                        print(f"CHECK FAILED: streamed aggregate only "
                              f"{ratio:.2f}x the 1-thread rate at 8 "
                              f"workers (want >=4x)", file=sys.stderr)
                        ok = False
        if entry["speedup_dfs_vs_flat"] < 1.0:
            print("CHECK FAILED: DFS evaluator slower than flat baseline",
                  file=sys.stderr)
            ok = False
        if previous is not None:
            prev_dfs = previous.get("splices_per_sec", {}).get("dfs")
            if prev_dfs and splices["dfs"] < prev_dfs / 5.0:
                print(f"CHECK FAILED: DFS rate {splices['dfs']:.3e} is >5x "
                      f"below previous {prev_dfs:.3e}", file=sys.stderr)
                ok = False
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
