#!/usr/bin/env python3
"""End-to-end smoke test for the FD-monitoring server binary.

Drives build/examples/fdevolve_serverd over a real TCP socket exactly the
way a human with nc would, and checks the full durability story:

  1. scripted session: CREATE / DECLARE FD / INSERT / SELECT, a
     kind=violated DRIFT push, an EXPLAIN REPAIR plan reply, then the
     mutation round-trip — DELETE the violating row (kind=recovered
     push), UPDATE a survivor, an ERR reply, then SHUTDOWN
  2. checkpoint-on-shutdown: the .fdev file exists after a clean exit
  3. restart with --resume: tombstoned rows stay deleted, the UPDATE
     survives, and a fresh insert lands
  4. SIGTERM path: the signal handler shuts down cleanly and the exit
     checkpoint is loadable again
  5. argument checks: an out-of-range or non-numeric --port is refused
     with exit status 2 instead of listening somewhere else

Usage: python3 scripts/server_smoke.py [path-to-fdevolve_serverd]
Exits non-zero on the first failed expectation (CI runs it as a job step).
"""

import os
import re
import signal
import socket
import subprocess
import sys
import tempfile


class Session:
    """Newline-framed protocol client (see src/server/protocol.h)."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.buf = b""

    def read_line(self):
        while b"\n" not in self.buf:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise EOFError("server closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.rstrip(b"\r").decode()

    def request(self, statement):
        """Sends one statement; returns (reply, drift_lines)."""
        self.sock.sendall(statement.encode() + b"\n")
        drift = []
        while True:
            line = self.read_line()
            if line.startswith("DRIFT "):
                drift.append(line)
                continue
            return line, drift

    def close(self):
        self.sock.close()


def expect(cond, message):
    if not cond:
        print("FAIL:", message, file=sys.stderr)
        sys.exit(1)
    print("ok:", message)


def start_server(binary, checkpoint, resume=False):
    cmd = [binary, "--checkpoint", checkpoint]
    if resume:
        cmd.append("--resume")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # Startup prints a couple of informational lines (e.g. the detected
    # SIMD tier) before the listen line; scan past them.
    for _ in range(5):
        line = proc.stdout.readline()
        match = re.match(r"listening on port (\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    print("FAIL: no listen line, got:", repr(line), file=sys.stderr)
    sys.exit(1)


def expect_rejected_port(binary, port):
    """The server must refuse `--port <port>` up front: exit 2, a message
    naming the flag, and never a listen line."""
    proc = subprocess.Popen([binary, "--port", port], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        expect(False, "--port " + port + " rejected (server kept running)")
    expect(proc.returncode == 2 and "--port" in err
           and "listening" not in out,
           "--port " + port + " rejected with exit 2: " + err.strip())


def main():
    binary = sys.argv[1] if len(sys.argv) > 1 else "build/examples/fdevolve_serverd"
    if not os.path.exists(binary):
        print("FAIL: server binary not found:", binary, file=sys.stderr)
        sys.exit(1)
    checkpoint = os.path.join(tempfile.mkdtemp(prefix="fdevolve_smoke_"),
                              "state.fdev")

    # 1. Scripted session.
    proc, port = start_server(binary, checkpoint)
    s = Session(port)
    reply, _ = s.request("CREATE TABLE city (name STRING, zip INT64, state STRING)")
    expect(reply == "OK 0", "CREATE TABLE -> " + reply)
    reply, _ = s.request("DECLARE FD zip -> state ON city")
    expect(reply == "OK 0", "DECLARE FD -> " + reply)
    reply, _ = s.request("INSERT INTO city VALUES ('NY', 10001, 'NY'), ('LA', 90001, 'CA')")
    expect(reply == "OK 2", "INSERT 2 rows -> " + reply)
    reply, _ = s.request("SELECT COUNT(*) FROM city")
    expect(reply == "OK 2", "COUNT(*) -> " + reply)
    # Violating insert: zip 10001 now maps to two states -> DRIFT push.
    reply, drift = s.request("SUBSCRIBE DRIFT ON city")
    expect(reply == "OK 0", "SUBSCRIBE -> " + reply)
    reply, drift = s.request("INSERT INTO city VALUES ('Hoboken', 10001, 'NJ')")
    expect(reply == "OK 1", "violating INSERT -> " + reply)
    expect(len(drift) == 1 and "table=city" in drift[0]
           and " kind=violated " in drift[0],
           "violated DRIFT push received: " + (drift[0] if drift else "<none>"))
    # EXPLAIN over TCP: while the FD is violated, the plan reply is a
    # single PLAN line (newlines folded to " | ") and is not journaled.
    reply, _ = s.request("EXPLAIN REPAIR zip -> state ON city")
    expect(reply.startswith("PLAN "), "EXPLAIN REPAIR -> " + reply[:40])
    expect("repair plan for [zip] -> [state]" in reply and " | " in reply,
           "plan text renders candidates: " + reply[:72])
    # Mutation round-trip: deleting the violating row restores the FD, so
    # the subscriber gets a kind=recovered push in the same critical
    # section as the OK reply.
    reply, drift = s.request("DELETE FROM city WHERE name = 'Hoboken'")
    expect(reply == "OK 1", "DELETE violator -> " + reply)
    expect(len(drift) == 1 and " kind=recovered " in drift[0],
           "recovered DRIFT push received: " + (drift[0] if drift else "<none>"))
    reply, _ = s.request("UPDATE city SET name = 'NYC' WHERE zip = 10001")
    expect(reply == "OK 1", "UPDATE survivor -> " + reply)
    reply, _ = s.request("SELECT COUNT(*) FROM city")
    expect(reply == "OK 2", "COUNT(*) counts live rows -> " + reply)
    reply, _ = s.request("SELECT COUNT(DISTINCT name) FROM city")
    expect(reply == "OK 2", "rewritten name visible -> " + reply)
    reply, _ = s.request("SELECT COUNT(*) FROM ghost")
    expect(reply.startswith("ERR "), "unknown table -> " + reply)
    reply, _ = s.request("SHUTDOWN")
    expect(reply == "OK 0", "SHUTDOWN -> " + reply)
    s.close()
    expect(proc.wait(timeout=30) == 0, "clean exit after SHUTDOWN")

    # 2. Checkpoint-on-shutdown invariant.
    expect(os.path.exists(checkpoint), "checkpoint written on shutdown")

    # 3. Resume: state survives the restart — including the tombstone
    #    (the deleted violator stays deleted) and the rewritten name.
    proc, port = start_server(binary, checkpoint, resume=True)
    s = Session(port)
    reply, _ = s.request("SELECT COUNT(*) FROM city")
    expect(reply == "OK 2", "tombstones survive --resume -> " + reply)
    reply, _ = s.request("SELECT COUNT(DISTINCT name) FROM city")
    expect(reply == "OK 2", "UPDATE survives --resume -> " + reply)
    reply, _ = s.request("INSERT INTO city VALUES ('SF', 94101, 'CA')")
    expect(reply == "OK 1", "insert after --resume -> " + reply)

    # 4. SIGTERM: the handler drains sessions and checkpoints on the way
    #    out; the new row must be in the final snapshot.
    proc.send_signal(signal.SIGTERM)
    expect(proc.wait(timeout=30) == 0, "clean exit after SIGTERM")
    proc, port = start_server(binary, checkpoint, resume=True)
    s = Session(port)
    reply, _ = s.request("SELECT COUNT(*) FROM city")
    expect(reply == "OK 3", "count after SIGTERM checkpoint -> " + reply)
    s.request("SHUTDOWN")
    expect(proc.wait(timeout=30) == 0, "final clean exit")

    # 5. Unchecked ports used to wrap (70000 -> 4464) or parse as 0 (a
    #    random port); both must now fail loudly.
    expect_rejected_port(binary, "70000")
    expect_rejected_port(binary, "abc")

    print("server smoke: all checks passed")


if __name__ == "__main__":
    main()
