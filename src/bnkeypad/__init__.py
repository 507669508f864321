"""Bengali multi-tap keypad toolkit.

Corpus frequency analysis, thumb-ergonomics modeling, keypad layout
construction and serialization, multi-tap transcription metrics (KSPC,
expected cost, key jamming), and assignment-style layout optimization.
"""

from .bn_text import (
    ALL_UNITS,
    CONJUNCT_JOINER,
    CONSONANTS,
    INDEPENDENT_VOWELS,
    SPACE_UNIT,
    SYMBOLS,
    VOWEL_SIGNS,
    Category,
    CorpusStats,
    FrequencyTable,
    GraphemeUnit,
    count_frequencies,
    count_unit_bigrams,
    rank_by_frequency,
    scan_units,
)
from .ergonomics import (
    DEFAULT_CONSONANT_KEYS,
    KEYPAD_KEYS,
    Direction,
    ErgonomicModel,
    KeyErgonomics,
    default_model,
    key_cost,
    rank_keys,
)
from .errors import KeypadError
from .layout import (
    DEFAULT_ROLES,
    Layout,
    PlacementPolicy,
    Role,
    Strategy,
    build_layout,
    parse,
    serialize,
)
from .transcribe import (
    EvaluationReport,
    KeystrokeTrace,
    decode,
    evaluate,
    evaluate_many,
    transcribe,
)

__version__ = "0.1.0"

# The optimizer is loaded on first use of one of its names (PEP 562), so
# importing the package, or running a command that does not optimize,
# never loads it.
_OPTIMIZE_NAMES = frozenset({
    "AssignmentInstance", "KeySlot", "Objective", "consonant_instance", "improve_local",
    "objective_value", "problem_from_stats", "solve_exhaustive", "solve_greedy",
})


# A star import binds these, so it loads the optimizer; a plain import does not.
__all__ = [
    "ALL_UNITS", "CONJUNCT_JOINER", "CONSONANTS", "INDEPENDENT_VOWELS", "SPACE_UNIT",
    "SYMBOLS", "VOWEL_SIGNS", "Category", "CorpusStats", "FrequencyTable", "GraphemeUnit",
    "count_frequencies", "count_unit_bigrams", "rank_by_frequency", "scan_units",
    "DEFAULT_CONSONANT_KEYS", "KEYPAD_KEYS", "Direction", "ErgonomicModel", "KeyErgonomics",
    "default_model", "key_cost", "rank_keys",
    "KeypadError",
    "DEFAULT_ROLES", "Layout", "PlacementPolicy", "Role", "Strategy", "build_layout",
    "parse", "serialize",
    "EvaluationReport", "KeystrokeTrace", "decode", "evaluate", "evaluate_many", "transcribe",
    *sorted(_OPTIMIZE_NAMES),
]


def __getattr__(name):
    if name in _OPTIMIZE_NAMES:
        from . import optimize
        return getattr(optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
