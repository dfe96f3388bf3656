#!/usr/bin/env python3
"""Parse-back checker for Chrome/Perfetto trace-event JSON.

A traced run is only useful if the artifact loads, so the tests and CI
re-parse what PerfettoTraceWriter wrote with Python's own `json` module and
enforce the structural rules the viewers rely on:

  - one JSON object with a "traceEvents" array of objects, nothing after it
    (no trailing bytes, no NaN/Infinity literals, no duplicate keys);
  - every event has a one-character string "ph"; every event has numeric
    pid/tid, and non-metadata events a numeric ts, all finite and
    non-negative;
  - "B"/"E" duration events stack-match per (pid, tid);
  - "b"/"e" async events pair up per (pid, cat, id); overlap is allowed;
  - per-(pid, tid) timestamps are nondecreasing (emission order is the
    engine's event order, which is nondecreasing simulated time);
  - "X" events carry a non-negative "dur"; "C" events carry at least one
    numeric series in "args".

Usage: check_trace.py TRACE.json...
Prints one line per file; exits 0 iff every file is valid, 1 otherwise.
"""

import json
import math
import sys
from collections import Counter, defaultdict


class Invalid(Exception):
    pass


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_finite_non_negative(v):
    # json.loads turns an overflowing literal such as 1e999 into inf.
    return is_number(v) and v >= 0 and (isinstance(v, int) or math.isfinite(v))


def no_duplicate_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise Invalid(f'duplicate key "{key}"')
        obj[key] = value
    return obj


def reject_constant(name):
    raise Invalid(f"non-JSON literal {name}")


def check_event(ev, stacks, last_ts, open_spans, counts):
    if not isinstance(ev, dict):
        raise Invalid("traceEvents element is not an object")
    ph = ev.get("ph")
    if not isinstance(ph, str) or len(ph) != 1:
        raise Invalid('missing or malformed "ph"')
    counts[ph] += 1
    fields = ("pid", "tid") if ph == "M" else ("pid", "tid", "ts")
    for key in fields:
        v = ev.get(key)
        if not is_finite_non_negative(v):
            raise Invalid(f'"{key}" is not a finite non-negative number')
    if ph == "M":
        return  # metadata carries no timestamp

    track = (ev["pid"], ev["tid"])
    ts = ev["ts"]
    if track in last_ts and ts < last_ts[track]:
        raise Invalid(f"ts {ts} decreases on track {track}; "
                      f"previous {last_ts[track]}")
    last_ts[track] = ts

    if ph == "B":
        if not isinstance(ev.get("name"), str):
            raise Invalid('"B" event without a name')
        stacks[track].append(ev["name"])
    elif ph == "E":
        if not stacks[track]:
            raise Invalid('"E" event with no open "B" on its track')
        stacks[track].pop()
    elif ph in "be":
        cat, span_id = ev.get("cat"), ev.get("id")
        if not isinstance(cat, str):
            raise Invalid('async event without a string "cat"')
        if not (isinstance(span_id, str) or is_number(span_id)):
            raise Invalid('async event without an "id"')
        key = (ev["pid"], cat, span_id)
        if ph == "b":
            open_spans[key] += 1
        elif open_spans[key] == 0:
            raise Invalid('"e" event without a matching open "b"')
        else:
            open_spans[key] -= 1
    elif ph == "X":
        dur = ev.get("dur")
        if not is_finite_non_negative(dur):
            raise Invalid('"X" event without a non-negative "dur"')
    elif ph == "C":
        args = ev.get("args")
        if not isinstance(args, dict) or not any(
                is_number(v) for v in args.values()):
            raise Invalid('"C" event without a numeric series in args')
    # Other phases ("i", "I", newer ones) only obey the track rule above.


def check_text(text):
    """Returns the per-phase event counts; raises Invalid on any violation."""
    try:
        doc = json.loads(text, object_pairs_hook=no_duplicate_keys,
                         parse_constant=reject_constant)
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        raise Invalid(f"not a JSON document: {e}") from None
    if not isinstance(doc, dict) or not isinstance(
            doc.get("traceEvents"), list):
        raise Invalid('root is not an object with a "traceEvents" array')

    stacks, last_ts = defaultdict(list), {}
    open_spans, counts = Counter(), Counter()
    for index, ev in enumerate(doc["traceEvents"]):
        try:
            check_event(ev, stacks, last_ts, open_spans, counts)
        except Invalid as e:
            raise Invalid(f"event {index}: {e}") from None
    for track, stack in stacks.items():
        if stack:
            raise Invalid(f'{len(stack)} "B" event(s) never closed on track '
                          f'{track}; first open: "{stack[0]}"')
    for key, n in open_spans.items():
        if n:
            raise Invalid(f"unclosed async span {key}")
    return counts


def main(paths):
    if not paths:
        print("usage: check_trace.py TRACE.json...", file=sys.stderr)
        return 2
    all_ok = True
    for path in paths:
        try:
            with open(path, "rb") as f:
                text = f.read().decode("utf-8")
            counts = check_text(text)
        except (OSError, UnicodeDecodeError, Invalid) as e:
            print(f"{path}: INVALID: {e}")
            all_ok = False
            continue
        print(f"{path}: ok, {sum(counts.values())} events "
              f"(async {counts['b']}/{counts['e']}, complete {counts['X']}, "
              f"counter {counts['C']}, instant {counts['i'] + counts['I']}, "
              f"metadata {counts['M']})")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
