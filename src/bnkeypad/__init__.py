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
    classify_char,
    count_file,
    count_frequencies,
    count_unit_bigrams,
    merge,
    merge_stats,
    rank_by_frequency,
    read_corpus,
    scan_units,
    unit_for,
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
from .optimize import (
    AssignmentInstance,
    KeySlot,
    Objective,
    consonant_instance,
    improve_local,
    objective_value,
    solve_exhaustive,
    solve_greedy,
)
from .transcribe import EvaluationReport, KeystrokeTrace, decode, evaluate, transcribe

__version__ = "0.1.0"
