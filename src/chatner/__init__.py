"""chatner: named entity recognition through chat-completion language models.

Typical use::

    from chatner import ZeroShotNer
    from chatner.client import MockBackend

    model = ZeroShotNer(backend=MockBackend(replies=[...]))
    model.contextualize({"person": "Names of people."})
    document, report = model.predict_one("Ada Lovelace wrote programs.")
"""

from __future__ import annotations

__version__ = "0.1.0"

from .client import BackendConfig, HttpBackend, MockBackend, chat_complete
from .domain import (
    AnnotatedDocument,
    Annotation,
    EntitySchema,
    NerConfig,
    ValidationIssue,
    ValidationResult,
    annotation_text,
    document_from_record,
    document_to_record,
    validate_document,
)
from .engine import FewShotNer, NerModel, PredictionResult, ZeroShotNer
from .errors import (
    AuthenticationError,
    BackendConnectionError,
    BackendError,
    BackendTimeoutError,
    ChatnerError,
    ConfigError,
    ConllError,
    ConversationError,
    EvaluationError,
    MalformedResponseError,
    MockScriptError,
    NotContextualizedError,
    ParseError,
    RateLimitError,
    RenderError,
    RetriesExhaustedError,
    ServerError,
    TemplateError,
)
from .evaluation import (
    ClassMetrics,
    EvalReport,
    Matching,
    evaluate,
    match_annotations,
    read_conll,
    read_conll_file,
)
from .parsing import (
    ParseReport,
    align_texts,
    extract_json_block,
    parse_inline,
    parse_json_answer,
)
from .prompting import (
    ChatMessage,
    augment_with_pos,
    compose_system_prompt,
    render_examples,
    render_inline,
    render_json,
)
from .templates import PromptTemplateSet, default_templates
from .validation import check_is_contextualized, ensure_examples, ensure_texts

__all__ = [
    "__version__",
    "AnnotatedDocument",
    "Annotation",
    "AuthenticationError",
    "BackendConfig",
    "BackendConnectionError",
    "BackendError",
    "BackendTimeoutError",
    "ChatMessage",
    "ChatnerError",
    "ClassMetrics",
    "ConfigError",
    "ConllError",
    "ConversationError",
    "EntitySchema",
    "EvalReport",
    "EvaluationError",
    "FewShotNer",
    "HttpBackend",
    "MalformedResponseError",
    "Matching",
    "MockBackend",
    "MockScriptError",
    "NerConfig",
    "NerModel",
    "NotContextualizedError",
    "ParseError",
    "ParseReport",
    "PredictionResult",
    "PromptTemplateSet",
    "RateLimitError",
    "RenderError",
    "RetriesExhaustedError",
    "ServerError",
    "TemplateError",
    "ValidationIssue",
    "ValidationResult",
    "ZeroShotNer",
    "align_texts",
    "annotation_text",
    "augment_with_pos",
    "chat_complete",
    "check_is_contextualized",
    "compose_system_prompt",
    "default_templates",
    "document_from_record",
    "document_to_record",
    "ensure_examples",
    "ensure_texts",
    "evaluate",
    "extract_json_block",
    "match_annotations",
    "parse_inline",
    "parse_json_answer",
    "read_conll",
    "read_conll_file",
    "render_examples",
    "render_inline",
    "render_json",
    "validate_document",
]
