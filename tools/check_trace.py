#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file written by --trace-json.

Usage: check_trace.py TRACE.json [REQUIREMENT...] [--forbid CATEGORY...]

Checks that the file parses, is shaped like a Chrome trace ("traceEvents"
list whose entries carry name/cat/ph/ts), and — when requirements are
given on the command line — that at least one matching event exists per
requirement. A requirement is either a bare category ("compile") or
"category:name" ("compile:miss", "error:kernel_trap") to pin a specific
event, such as the instant a sticky device error emits. Categories after
--forbid must have NO events: a clean, fault-free run asserting
"--forbid error" fails loudly if a device error sneaked into the trace.

CI runs this over a traced --run so a broken exporter (malformed JSON,
missing spans) fails the build instead of silently producing an
unloadable trace, and over fault-injected runs so the error instants
are known to reach the trace.

Exit code 0 on success, 1 with a diagnostic on any failure.
"""

import json
import sys


def fail(msg):
    print(f"check_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    if len(argv) < 2:
        fail("usage: check_trace.py TRACE.json [REQUIREMENT...] "
             "[--forbid CATEGORY...]")
    path = argv[1]
    wants, forbidden, forbidding = [], [], False
    for arg in argv[2:]:
        if arg == "--forbid":
            forbidding = True
        elif forbidding:
            forbidden.append(arg)
        else:
            wants.append(arg)

    try:
        with open(path) as f:
            trace = json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")

    if not isinstance(trace, dict) or "traceEvents" not in trace:
        fail(f"{path}: top level must be an object with a traceEvents key")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents must be a list")
    if not events:
        fail(f"{path}: traceEvents is empty")

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"{path}: traceEvents[{i}] is not an object")
        for key in ("name", "cat", "ph", "ts"):
            if key not in ev:
                fail(f"{path}: traceEvents[{i}] is missing {key!r}")
        if ev["ph"] == "X" and "dur" not in ev:
            fail(f"{path}: complete event traceEvents[{i}] is missing 'dur'")

    seen_cats = {ev["cat"] for ev in events}
    seen_named = {(ev["cat"], ev["name"]) for ev in events}
    missing = []
    for want in wants:
        if ":" in want:
            cat, name = want.split(":", 1)
            if (cat, name) not in seen_named:
                missing.append(want)
        elif want not in seen_cats:
            missing.append(want)
    if missing:
        present = sorted(f"{c}:{n}" for c, n in seen_named)
        fail(f"{path}: no events matching {missing} (present: {present})")

    for cat in forbidden:
        hits = [ev["name"] for ev in events if ev["cat"] == cat]
        if hits:
            fail(f"{path}: forbidden category {cat!r} has {len(hits)} "
                 f"event(s): {sorted(set(hits))}")

    print(f"check_trace: {path} OK — {len(events)} events, "
          f"categories {sorted(seen_cats)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
