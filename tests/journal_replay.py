"""Rebuild a network from the edge-update journal `wugnet learn --trace` writes.

Each journal line is one observation report (ObservationReport.to_json_line).
replay creates the line's `created` concepts, then stores each journalled
write's new weight and generic flag with ConceptNetwork.write. JSON floats
round-trip exactly, and each write journals the edge's flag as the write
left it, so the result equals the network the journal came from.

Each write is checked before it is stored, so an edited weight that a
later write overwrites still fails: its old weight must equal the
replayed edge's (0.0 for a new edge), and in a plain report its new
weight must be the plateau update old + r * (1 - old), bit for bit, or
old itself on a generic edge. A failed check raises ValueError naming
the instance and the edge.

Run as a script to replay a journal file into a network file:

    PYTHONPATH=src:tests python tests/journal_replay.py NET.trace.jsonl OUT.net
"""

import json
import sys

from wugnet.graph import LEARNING_RATE, ConceptNetwork, save_network


def replay(lines) -> ConceptNetwork:
    net = ConceptNetwork()
    nodes = {}
    for line in lines:
        report = json.loads(line)
        for key in report["created"]:
            kind, _, name = key.partition("/")
            nodes[key] = net.add_concept(name, kind)
        for src, label, dst, old, new, generic in report["edges"]:
            where = f"instance {report['instance']}: {src} {label} {dst}"
            edge = net.edge(nodes[src], nodes[dst], label)
            before = 0.0 if edge is None else edge.weight
            if old != before:
                raise ValueError(f"{where}: journalled old weight {old!r}, replayed {before!r}")
            if not report["generic"]:
                plateau = before + LEARNING_RATE * (1.0 - before)
                if edge is not None and edge.generic_origin:
                    plateau = before
                if new != plateau:
                    raise ValueError(f"{where}: journalled new weight {new!r}, plateau {plateau!r}")
            net.write(nodes[src], nodes[dst], label, new, generic)
    return net


if __name__ == "__main__":
    journal, destination = sys.argv[1:]
    with open(journal, encoding="utf-8") as f:
        save_network(replay(f), destination)
