"""Slow reference implementations of category membership and inheritance.

These are the original O(edges) member scan and the re-averaging over each
member's sorted neighbour list that ConceptNetwork.members_of and
ConceptNetwork.member_average replace. Tests compare the fast versions
against them bit for bit.
"""

from wugnet.graph import IS, OBJECT


def members_scan(net, category):
    """Concepts holding an `is` edge into the category, found by scanning every edge."""
    members = [e.source for e in net.edges() if e.target == category and e.label == IS]
    return sorted(members, key=lambda n: (n.name, n.kind))


def _totals(net, members):
    totals = {}
    for member in members:
        for target, label, weight in net.neighbors(member):
            totals[(target, label)] = totals.get((target, label), 0.0) + weight
    return totals


def member_average_reaveraged(net, category):
    """(target, label, mean) over the scanned members, re-averaged from neighbors()."""
    members = members_scan(net, category)
    totals = _totals(net, members)
    return [(target, label, totals[(target, label)] / len(members))
            for target, label in sorted(totals, key=lambda k: (k[0].kind, k[0].name, k[1]))]


def inherit_novel_member(net, subject_lemma, category):
    """A novel object joins a known category and copies its member-average features."""
    members = members_scan(net, category)
    subject = net.add_concept(subject_lemma, OBJECT)
    net.write(subject, category, IS, 1.0, True)
    if not members:
        return
    totals = _totals(net, members)
    for (target, label) in sorted(totals, key=lambda k: (k[0].kind, k[0].name, k[1])):
        mean = totals[(target, label)] / len(members)
        if mean <= 0.0 or target == subject:
            continue
        existing = net.edge(subject, target, label)
        if existing is not None and existing.generic_origin:
            continue
        net.write(subject, target, label, mean, False)
