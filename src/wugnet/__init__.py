"""wugnet: a concept-network learner for a toy-English fragment.

The network accumulates slot-labeled association strengths from paired
scenes and utterances; generic statements (bare plurals) maximize the
asserted association and can introduce categories and novel objects.
"""

from importlib import import_module

from .errors import FormatError
from .graph import (
    ACTION,
    ATTRIBUTE,
    CATEGORY,
    IS,
    OBJECT,
    SLOT1,
    SLOT2,
    Concept,
    ConceptNetwork,
    EdgeRuleError,
    NetworkFormatError,
    diff_networks,
    load_network,
    save_network,
)
from .lang import (
    Lexicon,
    ParseError,
    ParsedUtterance,
    default_lexicon,
    load_lexicon,
    parse,
    tokenize,
)
from .learner import (
    ActionFrame,
    Entity,
    LearningInstance,
    ObservationReport,
    Situation,
    UnlearnableGeneric,
    learn_curriculum,
    observe,
)
from .curriculum import (
    Curriculum,
    CurriculumSpec,
    builtin_curriculum,
    builtin_spec,
    generate,
    load_curriculum,
    save_curriculum,
)

__version__ = "0.1.0"

# Names of the numpy-backed modules, imported on first use (PEP 562), so
# that learning and querying a network never load numpy.
_LAZY = {
    "matrix": "matrix",
    "ConceptMatrix": "matrix",
    "agglomerative_order": "matrix",
    "build_matrix": "matrix",
    "category_vector": "matrix",
    "concept_vector": "matrix",
    "cosine_similarity": "matrix",
    "tasks": "tasks",
    "TaskResult": "tasks",
    "run_task": "tasks",
    "run_task1": "tasks",
    "run_task2": "tasks",
    "run_task3": "tasks",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)
