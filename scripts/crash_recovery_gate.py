#!/usr/bin/env python3
"""Crash-recovery gate: a sharded sweep must survive injected faults, a
graceful interruption, AND a hard-killed coordinator — and still produce a
final artifact byte-identical to the unsharded sequential reference.

Drill, against the release `btr-shard`/`btr-shard-worker` binaries:

1. `btr-shard sequential` writes the reference `final.btrw`.
2. `btr-shard run` under a `BTR_FAULT` plan that injects one fault (crash
   before/after commit, torn write, corrupt checkpoint, or stall) into every
   unit's first attempt, with `--max-commits 3`: the coordinator must stop
   with exit code 3 after three checkpoints, leaving no final artifact.
3. `btr-shard resume` is started and then SIGKILLed as soon as it commits
   another checkpoint — the hard coordinator crash. Workers it spawned may
   die mid-unit or commit behind its back; both must be survivable.
4. A final `btr-shard resume` must finish the sweep (exit 0) and its
   `final.btrw` must equal the sequential reference byte for byte.

Usage: crash_recovery_gate.py [--shard target/release/btr-shard]
                              [--work-dir DIR] [--keep]
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

# One fault on every unit's first attempt, drawn from all five kinds; the
# 60 s stall forces the coordinator's straggler deadline to do the killing.
FAULT_PLAN = "seed=42,percent=100,max=1,stall-ms=60000"

SPEC = [
    "--family", "pas",
    "--histories", "0,2,4,8",
    "--benchmarks", "compress,li",
    "--scale", "1e-6",
    "--group", "2",
    "--windows", "2",
]

SCHEDULING = [
    "--workers", "2",
    "--deadline-ms", "2500",
    "--backoff-base-ms", "5",
    "--backoff-cap-ms", "50",
]


def run(cmd, env=None, check_code=None):
    """Runs a command, echoing it; asserts on the exit code when asked."""
    print(f"$ {' '.join(cmd)}")
    proc = subprocess.run(cmd, env=env)
    if check_code is not None and proc.returncode != check_code:
        sys.exit(f"FAIL: expected exit code {check_code}, got {proc.returncode}")
    return proc.returncode


def committed_partials(out_dir):
    """Committed checkpoints: `partial-<id>.btrw` in the out dir's root."""
    if not os.path.isdir(out_dir):
        return 0
    return sum(
        1
        for name in os.listdir(out_dir)
        if name.startswith("partial-") and name.endswith(".btrw")
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shard", default="target/release/btr-shard",
                        help="path of the btr-shard binary (worker is its sibling)")
    parser.add_argument("--work-dir", default=None,
                        help="working directory (default: a fresh temp dir)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the working directory for inspection")
    args = parser.parse_args()

    if not os.path.exists(args.shard):
        sys.exit(f"FAIL: {args.shard} not found (cargo build --release -p btr-shard)")
    work = args.work_dir or tempfile.mkdtemp(prefix="crash-recovery-")
    os.makedirs(work, exist_ok=True)
    seq_dir = os.path.join(work, "sequential")
    shard_dir = os.path.join(work, "sharded")
    shutil.rmtree(seq_dir, ignore_errors=True)
    shutil.rmtree(shard_dir, ignore_errors=True)

    faulted_env = dict(os.environ, BTR_FAULT=FAULT_PLAN)

    # 1. The unsharded reference.
    run([args.shard, "sequential", seq_dir] + SPEC, check_code=0)
    reference = open(os.path.join(seq_dir, "final.btrw"), "rb").read()
    print(f"sequential reference: {len(reference)} bytes")

    # 2. Faulted run, gracefully interrupted after 3 commits (exit code 3).
    run([args.shard, "run", shard_dir] + SPEC + SCHEDULING + ["--max-commits", "3"],
        env=faulted_env, check_code=3)
    if os.path.exists(os.path.join(shard_dir, "final.btrw")):
        sys.exit("FAIL: interrupted run must not write a final artifact")
    after_interrupt = committed_partials(shard_dir)
    print(f"interrupted with {after_interrupt} committed checkpoints")
    if after_interrupt < 3:
        sys.exit("FAIL: expected at least the 3 quota'd checkpoints on disk")

    # 3. Resume, then SIGKILL the coordinator once it commits more work —
    #    the hard crash. (If it wins the race and finishes first, that is
    #    also a valid outcome; the next resume is then a no-op merge.)
    print(f"$ {args.shard} resume {shard_dir} ...  # then SIGKILL")
    proc = subprocess.Popen([args.shard, "resume", shard_dir] + SCHEDULING,
                            env=faulted_env)
    deadline = time.time() + 120
    while time.time() < deadline:
        if proc.poll() is not None:
            break
        if committed_partials(shard_dir) > after_interrupt:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            break
        time.sleep(0.05)
    else:
        proc.kill()
        proc.wait()
        sys.exit("FAIL: resume made no progress within 120 s")
    print(f"coordinator stopped (returncode {proc.returncode}) "
          f"with {committed_partials(shard_dir)} checkpoints on disk")

    # 4. Final resume finishes the sweep; its artifact must be byte-identical.
    run([args.shard, "resume", shard_dir] + SCHEDULING, env=faulted_env,
        check_code=0)
    merged = open(os.path.join(shard_dir, "final.btrw"), "rb").read()
    if merged != reference:
        sys.exit(f"FAIL: sharded final.btrw ({len(merged)} bytes) differs "
                 f"from the sequential reference ({len(reference)} bytes)")
    print(f"OK: sharded result is byte-identical to the sequential reference "
          f"({len(merged)} bytes) after faults, interruption and a killed "
          f"coordinator")
    if not args.keep and args.work_dir is None:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
