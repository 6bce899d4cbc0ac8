"""wugnet: a concept-network learner for a toy-English fragment.

The network accumulates slot-labeled association strengths from paired
scenes and utterances; generic statements (bare plurals) maximize the
asserted association and can introduce categories and novel objects.
"""

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
from .matrix import (
    ConceptMatrix,
    agglomerative_order,
    build_matrix,
    category_vector,
    concept_vector,
    cosine_similarity,
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
from .tasks import TaskResult, run_task, run_task1, run_task2, run_task3

__version__ = "0.1.0"
