#!/usr/bin/env python3
"""Digest of every benchmark operation's raw result.

Builds the three workloads of bench/workloads.py at each seed, calls every
operation once, and prints the operation count, the count whose check
failed, and one SHA-256 over each operation's raw result: every array and
verdict of an analysis (its moving frame read through `frame`; see
fed_fields), every field of a round-trip report, the exit code,
stdout and stderr of a CLI call, the files a call creates or rewrites in
its work directory (relative path and bytes: a CLI call's --out
artifacts), and an error as its type and message.  Two trees that print
the same three values compute the same bits on the benchmark's inputs and
fail the same operations.  No file under bench/ is written to; the CLI's
output files go to a temporary directory.

Before that summary line it prints a ledger: one JSON line per operation
with its seed, workload, index, class, whether its check passed, its error
type, its k_err and k_dev, a round trip's frame_deviation (None for other
operations), and the first 16 hex digits of the SHA-256 of its own result.
The hashes cover results, not ledger fields.  `diff` of the output of two
trees lists the operations that moved.

With --against FILE, a saved output of this script (another tree's, at the
same seeds), it then prints the transitions from that ledger to this one,
grouped by class: pass -> fail and fail -> pass, then on lines of their
own the changes of error type on an operation that fails at both, and the
largest k_err, k_dev and frame_deviation change of each class that has
one (a ledger without frame_deviation reads None there); and last one
summary line of counts: transitions (pass <-> fail only), fail -> fail
error-type changes, operations whose own SHA-256 changed with no
transition or type change, and unmatched operations.  A ledger against itself prints only zeros.

    PYTHONPATH=src python3 scripts/op_digest.py SEED [SEED ...] [--against FILE]
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from jacobi.geom import Analysis  # noqa: E402
from jacobi.matcurve import CurveJet  # noqa: E402
from jacobi.reconstruct import RoundtripReport  # noqa: E402

# a fixed name for the run's temporary directory, which CLI messages may
# contain
WORKDIR = "<workdir>"


def fed_fields(value):
    """Names of the dataclass value's fields in the order they are fed.
    An Analysis's moving frame is the property `frame`, built on first
    read; it is fed just before `reduced`, where the layout that stored
    the frame as a field had it, so a tree that keeps its bits prints the
    digest of one with that layout.  The cache field `_frame` is left
    out: it holds that same frame once read and None before, so feeding
    it would make the digest depend on whether the frame had been read."""
    names = [f.name for f in dataclasses.fields(value)]
    if isinstance(value, Analysis):
        names.remove("_frame")
        names.insert(names.index("reduced"), "frame")
    return names


def feed(h, value, workdir):
    """Add value to the hash h, tagged by its type so that no two values
    of different structure feed the same bytes."""
    if isinstance(value, BaseException):
        feed(h, (type(value).__name__, str(value)), workdir)
    elif isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}\n".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, CurveJet):
        # by value, not by field layout: t and each jet order in turn
        h.update(b"CurveJet\n")
        for v in (value.t, value.S, value.S1, value.S2, value.S3):
            feed(h, v, workdir)
    elif dataclasses.is_dataclass(value):
        h.update(f"{type(value).__name__}\n".encode())
        for name in fed_fields(value):
            feed(h, getattr(value, name), workdir)
    elif isinstance(value, (list, tuple)):
        h.update(f"seq {len(value)}\n".encode())
        for v in value:
            feed(h, v, workdir)
    elif isinstance(value, bytes):
        h.update(f"bytes {len(value)}\n".encode())
        h.update(value)
    elif isinstance(value, str):
        h.update(f"str {value.replace(workdir, WORKDIR)!r}\n".encode())
    elif value is None or isinstance(value, (bool, int, float, np.generic)):
        h.update(f"{type(value).__name__} {value!r}\n".encode())
    else:
        # a curve or evaluator object: its repr holds an address
        h.update(f"object {type(value).__name__}\n".encode())


def snapshot(workdir):
    """(mtime in ns, bytes) of every file under workdir, by relative
    path."""
    root = Path(workdir)
    return {p.relative_to(root).as_posix(): (p.stat().st_mtime_ns,
                                             p.read_bytes())
            for p in root.rglob("*") if p.is_file()}


def run_op(op, workdir):
    """(outcome, value) of one call of op: value is what the digest hashes,
    the op's class, its result or error, and, if the call created or
    rewrote files under workdir, their (relative path, bytes) in path
    order, with workdir's name in the bytes replaced by WORKDIR."""
    before = snapshot(workdir)
    try:
        result, exc = op.call(), None
    except Exception as e:  # part of the digest
        result, exc = None, e
    outcome = op.check(result, exc)
    files = [(path, data.replace(str(workdir).encode(), WORKDIR.encode()))
             for path, (stamp, data) in sorted(snapshot(workdir).items())
             if before.get(path) != (stamp, data)]
    value = (op.cls, exc if exc is not None else result)
    return outcome, value + ((files,) if files else ())


def digest(seeds):
    """(operations, failed, SHA-256 hex digest, ledger) over every
    operation of every workload at each seed; prints each operation's
    ledger line, and returns the lines as dicts."""
    h, count, failed, ledger = hashlib.sha256(), 0, 0, []
    for seed in seeds:
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                w = workloads.build(name, np.random.default_rng(seed),
                                    Path(tmp))
                ops = (op for ops in w.cycles for op in ops)
                for index, op in enumerate(ops):
                    outcome, value = run_op(op, tmp)
                    result = value[1]
                    failed += not outcome.ok
                    count += 1
                    own = hashlib.sha256()
                    feed(h, value, tmp)
                    feed(own, value, tmp)
                    ledger.append({
                        "seed": seed, "workload": name, "op": index,
                        "class": op.cls, "ok": outcome.ok,
                        "error": outcome.error, "k_err": outcome.k_err,
                        "k_dev": outcome.k_dev,
                        "frame_deviation": (
                            float(result.frame_deviation)
                            if isinstance(result, RoundtripReport) else None),
                        "sha256": own.hexdigest()[:16]})
                    print(json.dumps(ledger[-1]))
    return count, failed, h.hexdigest(), ledger


def read_ledger(path):
    """The ledger lines of a saved output of this script, as dicts."""
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.startswith("{")]


def transitions(old, new):
    """Report lines of the moves from the ledger old to the ledger new; the
    last is the summary line of counts."""
    def key(line):
        return line["seed"], line["workload"], line["op"]

    before = {key(line): line for line in old}
    moves = defaultdict(lambda: defaultdict(list))
    retyped = defaultdict(list)
    largest = defaultdict(dict)
    quiet = unmatched = 0
    for b in new:
        a = before.pop(key(b), None)
        if a is None:
            unmatched += 1
            continue
        where = "seed {} {} op {}".format(*key(b))
        if a["ok"] and not b["ok"]:
            moves[b["class"]]["pass -> fail"].append(
                f"{where} ({b['error']})")
        elif b["ok"] and not a["ok"]:
            moves[b["class"]]["fail -> pass"].append(
                f"{where} (was {a['error']})")
        elif a["error"] != b["error"]:
            retyped[b["class"]].append(
                f"{where} ({a['error']} -> {b['error']})")
        elif a["sha256"] != b["sha256"]:
            quiet += 1
        for field in ("k_err", "k_dev", "frame_deviation"):
            if a.get(field) is not None and b.get(field) is not None:
                change = abs(b[field] - a[field])
                if change > largest[b["class"]].get(field, (0.0,))[0]:
                    largest[b["class"]][field] = (change, where)
    out = []
    for cls in sorted(set(moves) | set(retyped) | set(largest)):
        for kind, ops in moves[cls].items():
            out.append(f"{cls}: {kind} {len(ops)}: {'; '.join(ops)}")
        if retyped[cls]:
            out.append(f"{cls}: fail -> fail error type {len(retyped[cls])}: "
                       f"{'; '.join(retyped[cls])}")
        for field, (change, where) in sorted(largest[cls].items()):
            out.append(f"{cls}: largest {field} change {change:.3e} "
                       f"({where})")
    count = sum(len(ops) for kinds in moves.values()
                for ops in kinds.values())
    out.append(f"transitions {count}, fail -> fail error-type changes "
               f"{sum(map(len, retyped.values()))}, sha256 changed with no "
               f"transition or type change {quiet}, unmatched ops "
               f"{unmatched + len(before)}")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("seeds", type=int, nargs="+")
    p.add_argument("--against", metavar="FILE",
                   help="a saved output of this script to report "
                        "transitions from")
    args = p.parse_args(argv)
    old = None if args.against is None else read_ledger(args.against)
    count, failed, hexdigest, ledger = digest(args.seeds)
    print(f"ops {count} failed {failed} sha256 {hexdigest}")
    if old is not None:
        print("\n".join(transitions(old, ledger)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
