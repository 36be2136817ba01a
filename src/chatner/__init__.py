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

from .client import MockBackend
from .domain import (
    AnnotatedDocument,
    Annotation,
    EntitySchema,
    document_from_record,
    document_to_record,
)
from .engine import FewShotNer, PredictionResult, ZeroShotNer
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
from .evaluation import evaluate, read_conll_file
from .parsing import ParseReport, parse_inline
from .prompting import ChatMessage

# The documented surface: the names the README uses, the messages
# plan_conversation returns, the record converters and the exceptions.
# Everything else is importable from its submodule.
__all__ = [
    "__version__",
    "AnnotatedDocument",
    "Annotation",
    "AuthenticationError",
    "BackendConnectionError",
    "BackendError",
    "BackendTimeoutError",
    "ChatMessage",
    "ChatnerError",
    "ConfigError",
    "ConllError",
    "ConversationError",
    "EntitySchema",
    "EvaluationError",
    "FewShotNer",
    "MalformedResponseError",
    "MockBackend",
    "MockScriptError",
    "NotContextualizedError",
    "ParseError",
    "ParseReport",
    "PredictionResult",
    "RateLimitError",
    "RenderError",
    "RetriesExhaustedError",
    "ServerError",
    "TemplateError",
    "ZeroShotNer",
    "document_from_record",
    "document_to_record",
    "evaluate",
    "parse_inline",
    "read_conll_file",
]
