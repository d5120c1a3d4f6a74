#!/usr/bin/env python3
"""Digest of every benchmark operation's raw result.

Builds the three workloads of bench/workloads.py at each seed, calls every
operation once, and prints the operation count, the count whose check
failed, and one SHA-256 over each operation's raw result: every array and
verdict of an analysis, every field of a round-trip report, the exit code,
stdout and stderr of a CLI call, and an error as its type and message.  Two
trees that print the same three values compute the same bits on the
benchmark's inputs and fail the same operations.  No file under bench/ is
written to; the CLI's output files go to a temporary directory.

    PYTHONPATH=src python3 scripts/op_digest.py SEED [SEED ...]
"""

import argparse
import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

# a fixed name for the run's temporary directory, which CLI messages may
# contain
WORKDIR = "<workdir>"


def feed(h, value, workdir):
    """Add value to the hash h, tagged by its type so that no two values
    of different structure feed the same bytes."""
    if isinstance(value, BaseException):
        feed(h, (type(value).__name__, str(value)), workdir)
    elif isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}\n".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(f"{type(value).__name__}\n".encode())
        for f in dataclasses.fields(value):
            feed(h, getattr(value, f.name), workdir)
    elif isinstance(value, (list, tuple)):
        h.update(f"seq {len(value)}\n".encode())
        for v in value:
            feed(h, v, workdir)
    elif isinstance(value, str):
        h.update(f"str {value.replace(workdir, WORKDIR)!r}\n".encode())
    elif value is None or isinstance(value, (bool, int, float, np.generic)):
        h.update(f"{type(value).__name__} {value!r}\n".encode())
    else:
        # a curve or evaluator object: its repr holds an address
        h.update(f"object {type(value).__name__}\n".encode())


def digest(seeds):
    """(operations, failed, SHA-256 hex digest) over every operation of
    every workload at each seed."""
    h, count, failed = hashlib.sha256(), 0, 0
    for seed in seeds:
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                w = workloads.build(name, np.random.default_rng(seed),
                                    Path(tmp))
                for op in (op for ops in w.cycles for op in ops):
                    try:
                        result, exc = op.call(), None
                    except Exception as e:  # part of the digest
                        result, exc = None, e
                    failed += not op.check(result, exc).ok
                    count += 1
                    feed(h, (op.cls, exc if exc is not None else result), tmp)
    return count, failed, h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("seeds", type=int, nargs="+")
    args = p.parse_args(argv)
    count, failed, hexdigest = digest(args.seeds)
    print(f"ops {count} failed {failed} sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
