#!/usr/bin/env python3
"""Serve smoke gate: the release `btrd` daemon must survive the full
`btrd-load` smoke scenario suite on an ephemeral port.

Drill, against the release binaries:

1. `btrd` is started on `127.0.0.1:0` with a deliberately small upload
   limit; its `btrd listening on HOST:PORT` stdout line yields the port.
2. `btrd-load` drives the acceptance scenarios over real sockets:
   streamed BTRT and text classify, the fused history sweep in JSON and
   BTRW, content-addressed cache replay by digest, oversized/truncated/
   garbage/malformed uploads answered with their typed 4xx, 404/405
   routing, a concurrent burst (200s or clean 503s, never hangs), and a
   `/metrics` document that decodes through the wire layer and reflects
   the traffic.
3. The daemon must still be alive afterwards (no crash absorbed a
   scenario), then shut down cleanly on SIGTERM.

Usage: serve_smoke.py [--btrd target/release/btrd]
                      [--load target/release/btrd-load]
"""

import argparse
import re
import signal
import subprocess
import sys
import time

UPLOAD_LIMIT = 1 << 20  # 1 MiB: small enough to trip the 413 scenario fast.


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--btrd", default="target/release/btrd")
    parser.add_argument("--load", default="target/release/btrd-load")
    args = parser.parse_args()

    cmd = [
        args.btrd,
        "--addr", "127.0.0.1:0",
        "--max-upload-bytes", str(UPLOAD_LIMIT),
        "--timeout-ms", "10000",
    ]
    print(f"$ {' '.join(cmd)}")
    daemon = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = daemon.stdout.readline()
        print(line.rstrip())
        match = re.search(r"btrd listening on (\S+)", line)
        if not match:
            sys.exit(f"FAIL: btrd did not announce its address: {line!r}")
        addr = match.group(1)

        load_cmd = [
            args.load,
            "--addr", addr,
            "--upload-limit", str(UPLOAD_LIMIT),
            "--records", "50000",
        ]
        print(f"$ {' '.join(load_cmd)}")
        load = subprocess.run(load_cmd)
        if load.returncode != 0:
            sys.exit(f"FAIL: btrd-load exited {load.returncode}")

        if daemon.poll() is not None:
            sys.exit(f"FAIL: btrd died during the suite (exit {daemon.returncode})")

        daemon.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10
        while daemon.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        if daemon.poll() is None:
            sys.exit("FAIL: btrd ignored SIGTERM for 10s")
        print("serve smoke: PASS")
    finally:
        if daemon.poll() is None:
            daemon.kill()


if __name__ == "__main__":
    main()
