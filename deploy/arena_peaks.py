#!/usr/bin/env python3
"""Where a benchmark run's peak resident set lives, mapping by mapping.

Usage: deploy/arena_peaks.py <vc-benchmark binary> <workload> <seed>
                             [--manifest BENCHMARK.json]

Runs one benchmark of <workload> with the kernel pool capped at one thread,
as benchmark/run.sh does. It samples /proc/<pid>/smaps until stderr prints
the warm-up repetition's line. That repetition's VmHWM is what the
benchmark reports as `peak_rss_mb`. The run is then stopped, and this prints
the largest RSS any sample saw for each of:

  - the main heap ([heap]): the main thread's glibc arena, where the
    coordinator allocates;
  - each thread arena: an anonymous read-write mapping that starts on a
    64 MiB boundary (glibc's HEAP_MAX_SIZE), one per allocating thread
    group;
  - large anonymous mmaps (>= 1 MiB and not an arena): glibc's direct
    mmaps and the thread stacks. They come and go, so this is the peak of
    their sum per sample;
  - everything else (binary, libraries, small mappings), also as the peak
    of a per-sample sum.

It prints their sum beside VmHWM. The sum bounds VmHWM from above but
overshoots it where a mapping peaks at another moment than the rest (the
main heap does, while the run's data is generated). So a second column
gives each mapping's RSS in the sample whose total was largest: that
column sums to VmHWM within one sampling interval, and says which arena to
shrink. Arenas that never reach 0.5 MB share one row.

Sampling is not free, which is why the interval is fixed at 50 ms
(INTERVAL_S). Reading smaps takes the process's mmap lock, which stalls
its page faults and so shifts which thread allocates first. At a 5 ms
interval, `mlp_transfer` often lands in a placement about 6 MB higher
than the unsampled `peak_rss_mb` on both trees. At 50 ms, sampled runs
matched the unsampled value in 6 of 6. Check the printed VmHWM against an
unsampled run before reading the rows.

This is a dev tool: the benchmark does not run it. Build the binary first:
    cargo build --release --manifest-path benchmark/Cargo.toml \\
        --target-dir <dir>   # -> <dir>/release/vc-benchmark
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
import threading
import time

INTERVAL_S = 0.05
ARENA_ALIGN = 64 << 20
LARGE = 1 << 20
HEADER = re.compile(r"^([0-9a-f]+)-([0-9a-f]+) (\S+) \S+ \S+ \S+\s*(.*)$")


def sample(pid):
    """[(start, end, perms, path, rss_bytes)] for every mapping of pid."""
    maps = []
    with open(f"/proc/{pid}/smaps") as f:
        for line in f:
            m = HEADER.match(line)
            if m:
                start, end = int(m.group(1), 16), int(m.group(2), 16)
                maps.append([start, end, m.group(3), m.group(4), 0])
            elif line.startswith("Rss:") and maps:
                maps[-1][4] = int(line.split()[1]) * 1024
    return maps


def vm_hwm(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


def classify(start, end, perms, path):
    """The key a mapping's RSS is charged to."""
    if path == "[heap]":
        return "main heap [heap]"
    if path == "" and perms.startswith("rw"):
        if start % ARENA_ALIGN == 0:
            return f"arena {start:#x}"
        if end - start >= LARGE:
            return "large anonymous mmaps"
    return "other"


GROUPS = ("large anonymous mmaps", "other")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--manifest", default="BENCHMARK.json")
    args = ap.parse_args()

    results = tempfile.mkdtemp(prefix="arena_peaks.")
    env = dict(os.environ, VC_THREADS="1")
    proc = subprocess.Popen(
        [args.binary, "--results-dir", results, "--manifest", args.manifest,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "1", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env)

    warm = threading.Event()

    def watch_stderr():
        for line in proc.stderr:
            if line.lstrip().startswith("warm-up"):
                sys.stderr.write(line)
                warm.set()
                return

    threading.Thread(target=watch_stderr, daemon=True).start()

    peaks, first_seen, samples, hwm = {}, {}, 0, 0
    at_max = {}
    t0 = time.monotonic()
    while True:
        done = warm.is_set()
        try:
            maps, hwm = sample(proc.pid), vm_hwm(proc.pid)
        except (FileNotFoundError, ProcessLookupError):
            break
        samples += 1
        totals = {}
        for start, end, perms, path, rss in maps:
            key = classify(start, end, perms, path)
            totals[key] = totals.get(key, 0) + rss
        for key, rss in totals.items():
            if rss > peaks.get(key, -1):
                peaks[key] = rss
            first_seen.setdefault(key, time.monotonic() - t0)
        if sum(totals.values()) > sum(at_max.values()):
            at_max = totals
        if done or proc.poll() is not None:
            break
        time.sleep(INTERVAL_S)
    proc.terminate()
    proc.wait()
    if not warm.is_set():
        sys.exit(f"no warm-up line before the run ended (exit {proc.returncode})")

    mb = 1 << 20
    idle = [k for k in peaks if k.startswith("arena") and peaks[k] < mb // 2]
    if idle:
        key = f"{len(idle)} arenas under 0.5 MB"
        peaks[key] = sum(peaks.pop(k) for k in idle)
        at_max[key] = sum(at_max.pop(k, 0) for k in idle)
        first_seen[key] = min(first_seen[k] for k in idle)
    rows = sorted((k for k in peaks if k not in GROUPS), key=lambda k: first_seen[k])
    rows += [k for k in GROUPS if k in peaks]
    print(f"{args.workload} seed {args.seed}: {samples} samples up to the warm-up line")
    print(f"{'mapping':<32} {'peak RSS MB':>12} {'at max total':>13} {'first seen s':>13}")
    for k in rows:
        print(f"{k:<32} {peaks[k] / mb:>12.1f} {at_max.get(k, 0) / mb:>13.1f} "
              f"{first_seen[k]:>13.2f}")
    print(f"{'sum':<32} {sum(peaks.values()) / mb:>12.1f} {sum(at_max.values()) / mb:>13.1f}")
    print(f"{'VmHWM (peak_rss_mb)':<32} {hwm / mb:>12.1f}")


if __name__ == "__main__":
    main()
