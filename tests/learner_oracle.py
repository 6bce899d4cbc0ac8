"""The learner's original observe / process_generic split, kept as a reference.

observe, process_generic and _membership_generic are the implementations
that learner.observe's single walk replaced, with their edge helpers.
Tests compare networks and reports against them exactly. The scene check
and the report types are shared with wugnet.learner; they did not change.
One fix is carried over: a plateauing write journals the edge's generic
flag as the write left it, so a plain write on a generic edge says generic.
The oracle reads that flag back off the edge, not from write's result.
The subject is noun phrase 0, and a verb's object noun phrase 1.
"""

from wugnet.graph import ACTION, ATTRIBUTE, CATEGORY, IS, OBJECT, SLOT1, SLOT2
from wugnet.lang import _parse, default_lexicon, tokenize
from wugnet.learner import EdgeWrite, ObservationReport, UnlearnableGeneric


def _ensure(net, report, name, kind):
    node = net.get(name, kind)
    if node is None:
        node = net.add_concept(name, kind)
        report.created.append(node.key)
    return node


def _observe_edge(net, report, src, dst, label):
    old, new, _ = net.write(src, dst, label, None, False)
    generic = net.edge(src, dst, label).generic_origin
    report.edges.append(EdgeWrite(src.key, label, dst.key, old, new, generic))


def _assert_edge(net, report, src, dst, label):
    old, new, _ = net.write(src, dst, label, 1.0, True)
    report.edges.append(EdgeWrite(src.key, label, dst.key, old, new, generic=True))


def observe(net, instance, lexicon=None):
    lex = lexicon or default_lexicon()
    tokens = tokenize(instance.utterance, lex)
    parsed = _parse(tokens, lex)
    if parsed.is_generic:
        return process_generic(net, parsed, instance.situation, " ".join(tokens))

    report = ObservationReport(instance.utterance, False, parsed, instance.situation)
    nodes = [_ensure(net, report, np.lemma, OBJECT) for np in parsed.noun_phrases]
    for np, node in zip(parsed.noun_phrases, nodes):
        if np.modifier is not None:
            color = _ensure(net, report, np.modifier, ATTRIBUTE)
            _observe_edge(net, report, node, color, IS)
    if parsed.verb is not None:
        action = _ensure(net, report, parsed.verb, ACTION)
        _observe_edge(net, report, nodes[0], action, SLOT1)
        if len(nodes) > 1:
            _observe_edge(net, report, nodes[1], action, SLOT2)
    return report


def process_generic(net, parsed, situation, text):
    """Learn a generic; its report names the utterance as text, its tokens joined."""
    if not parsed.is_generic:
        raise ValueError("process_generic expects a generic utterance")
    report = ObservationReport(text, True, parsed, situation)

    if parsed.verb is not None:
        subject = _ensure(net, report, parsed.noun_phrases[0].lemma, OBJECT)
        action = _ensure(net, report, parsed.verb, ACTION)
        _assert_edge(net, report, subject, action, SLOT1)
        if len(parsed.noun_phrases) > 1:
            obj = _ensure(net, report, parsed.noun_phrases[1].lemma, OBJECT)
            _assert_edge(net, report, obj, action, SLOT2)
        return report

    if parsed.complement_is_color:
        subject = _ensure(net, report, parsed.noun_phrases[0].lemma, OBJECT)
        color = _ensure(net, report, parsed.complement, ATTRIBUTE)
        _assert_edge(net, report, subject, color, IS)
        return report

    if parsed.complement is not None:
        _membership_generic(net, report, parsed)
        return report

    # bare plural with no complement or verb: the mention alone creates the node
    for np in parsed.noun_phrases:
        _ensure(net, report, np.lemma, OBJECT)
    return report


def _membership_generic(net, report, parsed):
    subject_lemma = parsed.noun_phrases[0].lemma
    complement_lemma = parsed.complement

    subject = net.get(subject_lemma, OBJECT)
    category = net.get(complement_lemma, CATEGORY)

    if category is None:
        clash = net.named(complement_lemma)
        if clash:
            raise UnlearnableGeneric(
                f"'{complement_lemma}' already names a non-category concept")
        if subject is None:
            if net.named(subject_lemma):
                raise UnlearnableGeneric(
                    f"'{subject_lemma}' already names a non-object concept")
            raise UnlearnableGeneric(
                f"cannot learn '{subject_lemma} are {complement_lemma}': "
                "both concepts are unknown")
        category = _ensure(net, report, complement_lemma, CATEGORY)
        _assert_edge(net, report, subject, category, IS)
        return

    if subject is not None:
        # both known: plain maximization of the membership edge
        _assert_edge(net, report, subject, category, IS)
        return

    if net.named(subject_lemma):
        raise UnlearnableGeneric(f"'{subject_lemma}' already names a non-object concept")

    # novel object into a known category: membership plus feature inheritance,
    # averaged over the members before the subject joins them
    averages = net.member_average(category)
    subject = _ensure(net, report, subject_lemma, OBJECT)
    _assert_edge(net, report, subject, category, IS)
    for target, label, mean in averages:
        if mean <= 0.0 or target == subject:
            continue
        existing = net.edge(subject, target, label)
        if existing is not None and existing.generic_origin:
            continue  # the membership edge itself stays generic
        net.write(subject, target, label, mean, False)
        report.edges.append(EdgeWrite(subject.key, label, target.key, 0.0, mean))
