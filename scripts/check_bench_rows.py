#!/usr/bin/env python3
"""Check bench_speed's registered rows without running a benchmark.

Usage: check_bench_rows.py BENCH_SPEED CKSUMLAB

Lists bench_speed's rows (--benchmark_list_tests=true) and the kernel
registry (`cksumlab --kernel list`), then asserts that
  * every kernel available on this machine registers all eight
    BM_Kernel_<alg>_<kernel> rows at /296 and /65536;
  * none of the retired per-algorithm rows, which timed the same code
    as a BM_Kernel_ row, is registered again.
Exits 0 when both hold, else 1 with one line per problem.
"""
import re
import subprocess
import sys

ALGS = ("internet", "fletcher255", "fletcher256", "fletcher32", "adler32",
        "crc32", "koopmandual", "koopmansingle")
SIZES = (296, 65536)
RETIRED = ("BM_InternetChecksum", "BM_InternetChecksumWide",
           "BM_Fletcher255", "BM_Fletcher256", "BM_Fletcher255Naive",
           "BM_Adler32", "BM_Crc32Bitwise", "BM_Crc32Table",
           "BM_Crc32Slice8")


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True,
                          check=True).stdout


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench, cksumlab = sys.argv[1:]
    rows = set(run([bench, "--benchmark_list_tests=true"]).split())
    kernels = re.findall(r"^\s+(\S+)\s+tier \d+\s+available\b",
                         run([cksumlab, "--kernel", "list"]), re.M)

    problems = []
    if not kernels:
        problems.append("`cksumlab --kernel list` shows no available kernel")
    for k in kernels:
        for alg in ALGS:
            for n in SIZES:
                row = f"BM_Kernel_{alg}_{k}/{n}"
                if row not in rows:
                    problems.append(f"missing row {row}")
    for row in sorted(rows):
        if row.split("/")[0] in RETIRED:
            problems.append(f"retired row {row} is registered")

    for p in problems:
        print(f"bench_speed_rows: {p}", file=sys.stderr)
    if not problems:
        print(f"bench_speed_rows: {len(kernels)} kernels x {len(ALGS)} "
              f"algorithms x {len(SIZES)} sizes registered; no retired rows")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
