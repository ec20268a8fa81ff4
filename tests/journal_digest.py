#!/usr/bin/env python3
"""Runs a journaled survey and checks the digest of its site records.

    journal_digest.py --journal PATH [--expect SHA256] -- COMMAND [ARGS...]

Removes PATH, runs COMMAND (which must write its journal to PATH), keeps the
frames whose body is a "site" record, sorts them by bytes (append order
follows completion order when --jobs > 1) and hashes the sorted lines, each
newline-terminated, with SHA-256. Site records carry every double as its hex
bit pattern, so the digest pins each experiment's samples bit for bit — a
last-place change in the flow network shows up here even when the printed
tables do not move. Without --expect the digest is printed (to capture a new
golden); with it, a mismatch exits 1.
"""

import argparse
import hashlib
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--expect")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command after '--'")

    if os.path.exists(args.journal):
        os.remove(args.journal)
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        print(f"journal_digest: command exited {done.returncode}", file=sys.stderr)
        return 1
    with open(args.journal, "rb") as f:
        sites = sorted(line for line in f if b'"body":{"type":"site"' in line)
    if not sites:
        print(f"journal_digest: no site records in {args.journal}", file=sys.stderr)
        return 1
    digest = hashlib.sha256(b"".join(sites)).hexdigest()
    if args.expect is None:
        print(digest)
        return 0
    if digest != args.expect:
        print(f"journal_digest: {len(sites)} site records hash to {digest}, "
              f"want {args.expect}", file=sys.stderr)
        return 1
    print(f"journal_digest: OK ({len(sites)} site records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
