"""The network codec before keys were formatted and looked up once per node.

network_to_text and network_from_text below are the versions the one-pass
codec in wugnet.graph replaced, kept word for word but for the edge store,
which now calls ConceptNetwork.write, and the edge order: edges() no longer
sorts, so the old codec sorts them by (source, target, label) as edges()
once did. Tests compare the two codecs: the same text for every network,
and for every file the same network or the same NetworkFormatError
message and line.
"""

from wugnet.graph import Concept, ConceptNetwork, NetworkFormatError


def network_to_text(net: ConceptNetwork) -> str:
    lines = ["conceptnet v1"]
    for node in net.concepts():
        lines.append(f"node {node.kind} {node.name}")
    for e in sorted(net.edges(), key=lambda e: (e.source, e.target, e.label)):
        lines.append(
            f"edge {e.source.key} {e.label} {e.target.key} "
            f"{e.weight:.17g} generic:{int(e.generic_origin)}"
        )
    return "\n".join(lines) + "\n"


def network_from_text(text: str) -> ConceptNetwork:
    net = ConceptNetwork()
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_header:
            if line != "conceptnet v1":
                raise NetworkFormatError(f"expected header 'conceptnet v1', got {line!r}", lineno)
            seen_header = True
            continue
        fields = line.split()
        if fields[0] == "node":
            if len(fields) != 3:
                raise NetworkFormatError("node line needs 'node <kind> <name>'", lineno)
            _, kind, name = fields
            if net.get(name, kind) is not None:
                raise NetworkFormatError(f"duplicate node {kind}/{name}", lineno)
            try:
                net.add_concept(name, kind)
            except ValueError as err:
                raise NetworkFormatError(str(err), lineno) from err
        elif fields[0] == "edge":
            if len(fields) != 6:
                raise NetworkFormatError("edge line needs 6 fields", lineno)
            _, src_key, label, dst_key, weight_s, flag_s = fields
            src = _node_from_key(net, src_key, lineno)
            dst = _node_from_key(net, dst_key, lineno)
            try:
                weight = float(weight_s)
            except ValueError as err:
                raise NetworkFormatError(f"bad weight {weight_s!r}", lineno) from err
            if flag_s not in ("generic:0", "generic:1"):
                raise NetworkFormatError(f"bad generic flag {flag_s!r}", lineno)
            try:
                net.write(src, dst, label, weight, flag_s == "generic:1")
            except ValueError as err:
                raise NetworkFormatError(str(err), lineno) from err
        else:
            raise NetworkFormatError(f"unexpected line {fields[0]!r}", lineno)
    if not seen_header:
        raise NetworkFormatError("empty file: missing 'conceptnet v1' header", 1)
    return net


def _node_from_key(net: ConceptNetwork, key: str, lineno: int) -> Concept:
    kind, sep, name = key.partition("/")
    if not sep:
        raise NetworkFormatError(f"bad concept key {key!r} (want kind/name)", lineno)
    node = net.get(name, kind)
    if node is None:
        raise NetworkFormatError(f"edge references undeclared concept {key!r}", lineno)
    return node
