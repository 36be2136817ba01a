"""Exception hierarchy shared across the package."""


class ChatnerError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(ChatnerError, ValueError):
    """Invalid schema, configuration value, or flag combination."""


class TemplateError(ChatnerError, ValueError):
    """Unknown template name, unknown placeholder, or malformed template."""


class RenderError(ChatnerError, ValueError):
    """A document cannot be rendered into the requested answer shape."""


class ConversationError(ChatnerError, ValueError):
    """A conversation violates the role-ordering contract."""


class ParseError(ChatnerError, ValueError):
    """A completion could not be parsed into annotations."""


class BackendError(ChatnerError):
    """Base class for completion-backend failures."""


class AuthenticationError(BackendError):
    """Rejected credentials. Never retried."""


class RateLimitError(BackendError):
    """The backend asked us to slow down (HTTP 429). Retried with backoff."""


class ServerError(BackendError):
    """The backend failed on its side (HTTP 5xx). Retried with backoff."""


class BackendTimeoutError(BackendError):
    """The backend did not answer within the configured timeout."""


class BackendConnectionError(BackendError):
    """The backend host could not be reached at all."""


class MalformedResponseError(BackendError):
    """The backend answered with a body we cannot interpret."""


class RetriesExhaustedError(BackendError):
    """All retry attempts failed."""


class MockScriptError(BackendError):
    """A scripted mock backend ran out of replies or matched no rule."""


class NotContextualizedError(ChatnerError, RuntimeError):
    """predict was called before contextualize."""


class ConllError(ChatnerError, ValueError):
    """A CoNLL input stream is malformed."""


class EvaluationError(ChatnerError, ValueError):
    """Predictions and gold documents cannot be compared."""
