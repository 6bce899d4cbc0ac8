"""wugnet: a concept-network learner for a toy-English fragment.

The network accumulates slot-labeled association strengths from paired
scenes and utterances; generic statements (bare plurals) maximize the
asserted association and can introduce categories and novel objects.

Every name is imported from the module that defines it, for example
`from wugnet.graph import ConceptNetwork`; the package root holds only
`__version__`.
"""

__version__ = "0.1.0"
