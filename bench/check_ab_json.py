#!/usr/bin/env python3
"""Check a JSON document printed by one of the bench/ab.hpp A/Bs.

    check_ab_json.py FILE [--field NAME]... ROW...

Fails unless FILE parses as JSON, holds every named ROW with both arms
carrying one positive, finite sample per pair and a median inside their
range, and holds every --field NAME as a top-level number.
"""
import json
import math
import sys


def fail(msg):
    sys.exit("check_ab_json: " + msg)


def main(argv):
    if not argv:
        fail("usage: check_ab_json.py FILE [--field NAME]... ROW...")
    path, rest = argv[0], argv[1:]
    fields, rows = [], []
    while rest:
        if rest[0] == "--field" and len(rest) > 1:
            fields.append(rest[1])
            rest = rest[2:]
        else:
            rows.append(rest[0])
            rest = rest[1:]

    with open(path) as f:
        doc = json.load(f)
    pairs = doc.get("pairs")
    if not isinstance(pairs, int) or pairs < 1:
        fail("%s: no positive pair count" % path)
    by_name = {r.get("row"): r for r in doc.get("rows", [])}
    for name in rows:
        row = by_name.get(name)
        if row is None:
            fail("%s: row %r missing" % (path, name))
        for key in ("a", "b"):
            arm = row.get(key) or {}
            s = arm.get("samples", [])
            if len(s) != pairs:
                fail("%s: row %r arm %s has %d samples, not %d"
                     % (path, name, key, len(s), pairs))
            if not all(isinstance(v, (int, float)) and math.isfinite(v)
                       and v > 0 for v in s):
                fail("%s: row %r arm %s has a sample that is not a "
                     "positive number" % (path, name, key))
            med = arm.get("median")
            if not isinstance(med, (int, float)) or \
                    not min(s) <= med <= max(s):
                fail("%s: row %r arm %s median outside its samples"
                     % (path, name, key))
    for name in fields:
        v = doc.get(name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("%s: field %r missing or not a number" % (path, name))


if __name__ == "__main__":
    main(sys.argv[1:])
