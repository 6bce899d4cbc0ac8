"""Rebuild a network from the edge-update journal `wugnet learn --trace` writes.

Each journal line is one observation report (ObservationReport.to_json_line).
replay creates the line's `created` concepts, then stores each journalled
write's new weight and generic flag with ConceptNetwork.write. JSON floats
round-trip exactly, and each write journals the edge's flag as the write
left it, so the result equals the network the journal came from.

Run as a script to replay a journal file into a network file:

    PYTHONPATH=src:tests python tests/journal_replay.py NET.trace.jsonl OUT.net
"""

import json
import sys

from wugnet.graph import ConceptNetwork, save_network


def replay(lines) -> ConceptNetwork:
    net = ConceptNetwork()
    nodes = {}
    for line in lines:
        report = json.loads(line)
        for key in report["created"]:
            kind, _, name = key.partition("/")
            nodes[key] = net.add_concept(name, kind)
        for src, label, dst, _old, new, generic in report["edges"]:
            net.write(nodes[src], nodes[dst], label, new, generic)
    return net


if __name__ == "__main__":
    journal, destination = sys.argv[1:]
    with open(journal, encoding="utf-8") as f:
        save_network(replay(f), destination)
