#!/usr/bin/env python3
"""CI gates over output files that the OCaml programs do not judge themselves.

The bench experiments (E11-E15) judge their own gates: `bench/main.exe`
exits 1 naming each failed one.  What is left is checked here:

  gate.py perfbench OUT        the last line of a `perfbench/run.py` run
                               reports correct output and no failed ops
  gate.py monitor-share OUT    the same, on a `--trace 1` run, and the SLO
                               monitor costs at most MONITOR_SHARE_MAX of
                               the attributed per-read time
  gate.py alerts LIVE OFFLINE  a live `--slo-out` health summary and the
                               offline `monitor --format json` replay of
                               its trace raised the same alert rules,
                               counted per rule (the JSONL round trip
                               moves floats, so times are not compared)

Each gate prints what it read and exits 1 with a message when it fails.
"""

import collections
import json
import sys

MONITOR_SHARE_MAX = 0.15


def perfbench(path):
    with open(path) as f:
        r = json.loads(f.read().strip().splitlines()[-1])
    print(f"{path}: correct {r['correct']}  attempted {r['attempted']}  failed {r['failed']}")
    if r["correct"] is not True or r["failed"] != 0:
        sys.exit(f"{path}: benchmark run reported incorrect output or failed operations")
    return r


def monitor_share(path):
    m = {k: v["value"] for k, v in perfbench(path)["metrics"].items()}
    monitor = m["monitor.us_per_read"]
    total = (m["crypto.us_per_read"] + m["store.us_per_read"]
             + monitor + m["sim.residual_us_per_read"])
    share = monitor / total
    print(f"{path}: monitor {monitor:.1f} us of {total:.1f} us per read ({share:.1%})")
    if share > MONITOR_SHARE_MAX:
        sys.exit(f"{path}: SLO monitor costs {share:.1%} of a read, "
                 f"above the {MONITOR_SHARE_MAX:.0%} budget")


def alerts(live_path, offline_path):
    def rules(path):
        with open(path) as f:
            return collections.Counter(a["rule"] for a in json.load(f)["alerts"])

    live, offline = rules(live_path), rules(offline_path)
    print(f"live: {dict(live)}  offline: {dict(offline)}")
    if live != offline:
        sys.exit("the offline replay raised different alerts from the live run")


GATES = {"perfbench": perfbench, "monitor-share": monitor_share, "alerts": alerts}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in GATES:
        sys.exit(f"usage: gate.py {{{'|'.join(GATES)}}} FILE...")
    GATES[sys.argv[1]](*sys.argv[2:])
