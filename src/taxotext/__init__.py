"""Classify entities into industry and provider taxonomies from web text.

The pipeline acquires short descriptive texts for named entities (search
snippets, hosted-model summaries, or both), builds training corpora, fits a
hashed-feature softmax classifier, and evaluates with macro metrics,
confidence-threshold sweeps, and snippet-depth ablations. A CLI drives the
same steps end to end; see the README for a tour.
"""

import os

# Before anything imports NumPy: one OpenBLAS thread. Each training logit is
# a small matrix-vector product above OpenBLAS's threading threshold, so a
# second thread would wake for every one and then spin, doubling CPU time
# for no gain in wall time. A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .ablation import AblationPoint, ablate_snippets, write_ablation_csv
from .acquire import SourceSpec, TextAcquirer, parse_source_signature
from .cache import TextCache
from .config import PipelineConfig, load_config
from .corpus import (
    BuildResult,
    ClassificationInstance,
    build_instances,
    chat_messages,
    emit_chat_finetune,
    emit_tabular,
    load_chat_finetune,
    load_tabular,
    system_instruction,
)
from .errors import TaxotextError
from .features import FeatureVector, featurize, tokenize
from .manifest import TOOL_VERSION
from .metrics import (
    ClassScore,
    ConfusionMatrix,
    MacroReport,
    ThresholdPoint,
    confusion,
    macro_report,
    per_category_table,
    threshold_sweep,
    write_report,
    write_sweep_csv,
)
from .remote import build_classify_prompt, parse_code_response, prompt_baseline
from .search import SearchClient, SearchResult, aggregate_snippets
from .softmax import Prediction, SoftmaxModel, TrainConfig, load_model, predict, predict_instances, predict_text, save_model, train
from .summarize import LlmClient, PromptTemplate, detect_refusal, generate_summary, truncate_at_sentence
from .taxonomy import (
    CategoryLabel,
    Dataset,
    EntityRecord,
    Split,
    TaskId,
    TaxonomyScheme,
    load_dataset,
    load_healthcare_scheme,
    load_scheme,
    load_sic_scheme,
    lookup_healthcare_category,
    normalize_sic,
    split_dataset,
)
from .texts import AcquiredText, Source, combine_texts

__version__ = TOOL_VERSION

__all__ = [
    "AblationPoint",
    "AcquiredText",
    "BuildResult",
    "CategoryLabel",
    "ClassScore",
    "ClassificationInstance",
    "ConfusionMatrix",
    "Dataset",
    "EntityRecord",
    "FeatureVector",
    "LlmClient",
    "MacroReport",
    "PipelineConfig",
    "Prediction",
    "PromptTemplate",
    "SearchClient",
    "SearchResult",
    "SoftmaxModel",
    "Source",
    "SourceSpec",
    "Split",
    "TaskId",
    "TaxonomyScheme",
    "TaxotextError",
    "TextAcquirer",
    "TextCache",
    "ThresholdPoint",
    "TrainConfig",
    "ablate_snippets",
    "aggregate_snippets",
    "build_classify_prompt",
    "build_instances",
    "chat_messages",
    "combine_texts",
    "confusion",
    "detect_refusal",
    "emit_chat_finetune",
    "emit_tabular",
    "featurize",
    "generate_summary",
    "load_chat_finetune",
    "load_config",
    "load_dataset",
    "load_healthcare_scheme",
    "load_model",
    "load_scheme",
    "load_sic_scheme",
    "load_tabular",
    "lookup_healthcare_category",
    "macro_report",
    "normalize_sic",
    "parse_code_response",
    "parse_source_signature",
    "per_category_table",
    "predict",
    "predict_instances",
    "predict_text",
    "prompt_baseline",
    "save_model",
    "split_dataset",
    "system_instruction",
    "threshold_sweep",
    "tokenize",
    "train",
    "truncate_at_sentence",
    "write_ablation_csv",
    "write_report",
    "write_sweep_csv",
    "__version__",
]
