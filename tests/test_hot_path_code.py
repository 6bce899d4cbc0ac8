"""The per-instance learning path builds no function objects while it runs.

Before CPython 3.12, every comprehension or generator expression is a
nested code object, and each call of the function holding it builds a new
function object for it; the locals it reads move into closure cells, which
every access then goes through. On the learning path those costs are paid
once per instance, and `learn_instances_per_s` measures them. The same goes
for `Situation.__new__`, which checks the scene of every instance a
curriculum generates or loads, and for the tokenizer and the template
walk, which read each distinct utterance once: `setup_s` pays their
costs. The network loader, network_from_text, runs its loop once per
line of a saved file, and `save_load_ms` pays for it. So the functions
below hold no nested code object and no cell variable. PEP 709
inlines list, dict and set comprehensions from 3.12 on, which makes this
test moot there; it still runs on every version.
"""

import types

import pytest

from wugnet import graph, lang, learner

HOT_PATH = (
    learner.observe,
    learner._membership_generic,
    learner._ensure,
    learner._link,
    learner.learn_curriculum,
    lang.parse,
    lang.tokenize,
    lang._parse,
    lang._plural_np,
    lang._det_np,
    learner.ObservationReport.__init__,
    graph.ConceptNetwork.get,
    graph.ConceptNetwork.named,
    graph.ConceptNetwork.write,
    graph.network_from_text,
    learner.Situation.__new__,
)


@pytest.mark.parametrize("function", HOT_PATH, ids=lambda f: f.__qualname__)
def test_hot_path_function_builds_no_closures(function):
    code = function.__code__
    assert [c.co_name for c in code.co_consts if isinstance(c, types.CodeType)] == []
    assert code.co_cellvars == ()
