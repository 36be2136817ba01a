"""The estimator: configure, contextualize with a schema, then predict.

The interface follows scikit-learn conventions: every constructor argument
is stored verbatim as a public attribute and reported by ``get_params``,
nothing is validated until :meth:`NerModel.contextualize` (the fit step),
and fitted state lives in trailing-underscore attributes. ``predict``
refuses to run before ``contextualize``.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .client import (
    BackendConfig,
    CompletionBackend,
    DEFAULT_BASE_URL,
    HttpBackend,
    chat_complete,
)
from .domain import AnnotatedDocument, EntitySchema, NerConfig
from .errors import (
    ChatnerError,
    ConfigError,
    MalformedResponseError,
    NotContextualizedError,
    ParseError,
)
from .parsing import ParseReport, parse_inline, parse_json_answer
from .prompting import (
    ChatMessage,
    augment_with_pos,
    compose_system_prompt,
    plan_turns,
    render_examples,
)
from .templates import PromptTemplateSet


@dataclass(frozen=True)
class PredictionResult:
    """Outcome for one document in a batch.

    ``error`` carries the per-document failure, if any, so one bad document
    never aborts a batch; failed documents keep their input text with an
    empty annotation set.
    """

    document: AnnotatedDocument
    report: ParseReport
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _resolve_templates(
    templates: PromptTemplateSet | Mapping[str, str] | str | Path | None,
) -> PromptTemplateSet:
    if templates is None:
        return PromptTemplateSet()
    if isinstance(templates, PromptTemplateSet):
        return templates
    if isinstance(templates, (str, Path)):
        return PromptTemplateSet.from_file(templates)
    if isinstance(templates, Mapping):
        return PromptTemplateSet.with_overrides(templates)
    raise ConfigError(
        "templates must be a PromptTemplateSet, a mapping of overrides, "
        f"or a path, got {type(templates).__name__}"
    )


def check_is_contextualized(model) -> None:
    """Raise unless ``model`` has been given its entity schema."""
    if getattr(model, "schema_", None) is None:
        raise NotContextualizedError(
            f"this {type(model).__name__} instance is not contextualized yet; "
            "call contextualize(entities=...) before predict"
        )


def ensure_texts(texts) -> list[str]:
    """Normalize a predict() input to a list of strings.

    A bare string is rejected: it is iterable, so silently accepting it
    would predict one document per character.
    """
    if isinstance(texts, str):
        raise TypeError("pass a sequence of texts, not a single string")
    try:
        items = list(texts)
    except TypeError:
        raise TypeError(f"texts must be a sequence of strings, got {type(texts).__name__}") from None
    for item in items:
        if not isinstance(item, str):
            raise TypeError(f"texts must all be strings, got {type(item).__name__}")
    return items


def _check_workers(workers: int) -> int:
    if workers < 1:
        raise ConfigError("max_concurrency must be >= 1")
    return workers


class NerModel:
    """Named entity recognition through a chat-completion model.

    Parameters
    ----------
    method : "single_turn" asks for every entity in one exchange;
        "multi_turn" dedicates one turn per entity, which helps weaker
        models and allows one span to carry several labels.
    multi_turn_mode : "step_by_step" parses every turn's answer and merges
        them; "final_step" only parses a closing answer covering all
        entities.
    answer_shape : "inline" expects the text echoed back with mentions
        wrapped in tags; "json" expects an object of label -> mentions.
    delimiters : optional custom (open, close) pair replacing the
        label-named tags; multi-turn only.
    pos_mode : "none", "via_llm" (one extra request asks the model to
        part-of-speech tag the text first), or "via_hook" (``pos_tagger``
        is called instead).
    examples, entities : supplied to :meth:`contextualize`, not here.
    backend : any object with a ``complete(conversation, config)`` method;
        defaults to the live HTTP client for ``base_url``.

    The remaining parameters mirror the connection settings of
    :class:`chatner.client.BackendConfig`.
    """

    def __init__(
        self,
        *,
        method: str = "single_turn",
        multi_turn_mode: str = "step_by_step",
        answer_shape: str = "inline",
        delimiters: tuple[str, str] | None = None,
        pos_mode: str = "none",
        pos_tagger: Callable | None = None,
        model: str = "gpt-3.5-turbo",
        temperature: float = 0.0,
        max_tokens: int = 1024,
        max_retries: int = 3,
        max_concurrency: int = 1,
        templates: PromptTemplateSet | Mapping[str, str] | str | Path | None = None,
        backend: CompletionBackend | None = None,
        base_url: str = DEFAULT_BASE_URL,
        api_key: str | None = None,
        timeout: float = 60.0,
        initial_backoff_ms: float = 500.0,
    ):
        self.method = method
        self.multi_turn_mode = multi_turn_mode
        self.answer_shape = answer_shape
        self.delimiters = delimiters
        self.pos_mode = pos_mode
        self.pos_tagger = pos_tagger
        self.model = model
        self.temperature = temperature
        self.max_tokens = max_tokens
        self.max_retries = max_retries
        self.max_concurrency = max_concurrency
        self.templates = templates
        self.backend = backend
        self.base_url = base_url
        self.api_key = api_key
        self.timeout = timeout
        self.initial_backoff_ms = initial_backoff_ms
        self.schema_: EntitySchema | None = None

    # -- scikit-learn style parameter plumbing ---------------------------

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        """Constructor parameters as a dict, scikit-learn style."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "NerModel":
        """Update constructor parameters; unknown names raise ValueError."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    # -- lifecycle --------------------------------------------------------

    @property
    def is_contextualized(self) -> bool:
        return self.schema_ is not None

    def contextualize(
        self,
        entities: EntitySchema | Mapping[str, str],
        examples: Sequence[AnnotatedDocument] | None = None,
    ) -> "NerModel":
        """Bind the entity schema (and optional few-shot examples).

        This is the fit step: it validates the whole configuration, builds
        the prompt prefix (system message plus demonstration pairs), and
        unlocks :meth:`predict`. Returns self for chaining.
        """
        schema = entities if isinstance(entities, EntitySchema) else EntitySchema(entities)
        config = NerConfig(
            prompting_method=self.method,
            multi_turn_mode=self.multi_turn_mode,
            answer_shape=self.answer_shape,
            delimiters=self.delimiters,
            pos_mode=self.pos_mode,
        )
        _check_workers(self.max_concurrency)
        if config.pos_mode == "via_hook" and self.pos_tagger is None:
            raise ConfigError("pos_mode 'via_hook' needs the pos_tagger parameter")
        templates = _resolve_templates(self.templates)
        examples = tuple(examples or ())
        system = compose_system_prompt(schema, config, templates)
        demonstrations = render_examples(examples, schema, config, templates)
        prefix = [system]
        for user, assistant in demonstrations:
            prefix.extend((user, assistant))
        self.config_ = config
        self.templates_ = templates
        self.examples_ = examples
        self.backend_ = self.backend if self.backend is not None else HttpBackend()
        self.backend_config_ = BackendConfig(
            base_url=self.base_url,
            api_key=self.api_key,
            model=self.model,
            temperature=self.temperature,
            max_tokens=self.max_tokens,
            timeout=self.timeout,
            max_retries=self.max_retries,
            initial_backoff_ms=self.initial_backoff_ms,
        )
        self.prefix_ = tuple(prefix)
        self.schema_ = schema
        return self

    # -- prediction -------------------------------------------------------

    def _complete(self, conversation: Sequence[ChatMessage]) -> str:
        return chat_complete(conversation, self.backend_config_, backend=self.backend_)

    def _parse(
        self, conversation: Sequence[ChatMessage], reply: str, text: str, label: str | None
    ) -> tuple[ParseReport, str]:
        """Parse the reply to a turn about ``label`` (None: every label).

        A JSON answer that does not parse is re-requested once; the reply
        actually parsed is returned with the report.
        """
        schema = self.schema_ if label is None else EntitySchema({label: self.schema_[label]})
        if self.config_.answer_shape == "inline":
            # Custom delimiters only mark the single label of a per-entity turn.
            delimiters = None if label is None else self.config_.delimiters
            return parse_inline(reply, text, schema, delimiters)[1], reply
        try:
            return parse_json_answer(reply, text, schema)[1], reply
        except ParseError:
            reply = self._complete(conversation)
            return parse_json_answer(reply, text, schema)[1], reply

    def _augmented(self, text: str) -> str:
        if self.config_.pos_mode == "none":
            return text
        return augment_with_pos(
            text,
            self.config_,
            tagger=self.pos_tagger,
            backend=self.backend_,
            backend_config=self.backend_config_,
            templates=self.templates_,
        )

    def predict_one(self, text: str) -> tuple[AnnotatedDocument, ParseReport]:
        """Annotate one text. Backend and double-parse failures raise.

        Walks the turns of :func:`chatner.prompting.plan_turns`, parsing
        the reply to every turn that covers all labels and, in step-by-step
        mode, to every per-label turn; the result is the union of what the
        parsed turns recovered.
        """
        check_is_contextualized(self)
        if not isinstance(text, str):
            raise TypeError(f"text must be a string, got {type(text).__name__}")
        parse_every_turn = self.config_.multi_turn_mode == "step_by_step"
        conversation = list(self.prefix_)
        annotations: set = set()
        warnings: list[str] = []
        turns = plan_turns(self._augmented(text), self.schema_, self.config_, self.templates_)
        for position, (message, label) in enumerate(turns):
            if position:
                if not reply:
                    raise MalformedResponseError(
                        "empty completion cannot continue a multi-turn exchange"
                    )
                conversation.append(ChatMessage("assistant", reply))
            conversation.append(message)
            reply = self._complete(conversation)
            if label is None or parse_every_turn:
                report, reply = self._parse(conversation, reply, text, label)
                annotations.update(report.annotations)
                warnings.extend(report.warnings)
        document = AnnotatedDocument(text, frozenset(annotations))
        return document, ParseReport(document.annotations, tuple(warnings))

    def predict(
        self,
        texts: Sequence[str],
        max_concurrency: int | None = None,
    ) -> list[PredictionResult]:
        """Annotate a batch of texts, preserving input order.

        At most ``max_concurrency`` requests are in flight at once
        (defaulting to the constructor parameter). A failure is recorded in
        that document's result instead of aborting the batch.
        """
        check_is_contextualized(self)
        items = ensure_texts(texts)
        workers = _check_workers(
            max_concurrency if max_concurrency is not None else self.max_concurrency
        )
        if not items:
            return []

        def run(text: str) -> PredictionResult:
            try:
                document, report = self.predict_one(text)
                return PredictionResult(document, report)
            except ChatnerError as exc:
                empty = AnnotatedDocument(text)
                return PredictionResult(empty, ParseReport(frozenset(), ()), error=exc)

        if workers == 1 or len(items) == 1:
            return [run(text) for text in items]
        with ThreadPoolExecutor(max_workers=min(workers, len(items))) as executor:
            return list(executor.map(run, items))

    # -- prompt inspection -------------------------------------------------

    def plan_conversation(self, text: str) -> tuple[ChatMessage, ...]:
        """The exact messages predict would submit for ``text``, without
        contacting any backend.

        Assistant replies that would come from the model appear as
        ``{response}`` placeholders; with pos_mode "via_llm" the tag block
        appears as a ``{pos_tags}`` placeholder.
        """
        check_is_contextualized(self)
        config = self.config_
        if config.pos_mode == "via_llm":
            block = self.templates_.render("pos_block", text=text, tags="{pos_tags}")
        else:
            block = self._augmented(text)
        messages = list(self.prefix_)
        for message, _ in plan_turns(block, self.schema_, config, self.templates_):
            messages.append(message)
            if config.prompting_method == "multi_turn":
                messages.append(ChatMessage("assistant", "{response}"))
        return tuple(messages)


class ZeroShotNer(NerModel):
    """NER from instructions alone: the schema is the entire supervision."""

    def contextualize(
        self,
        entities: EntitySchema | Mapping[str, str],
        examples: Sequence[AnnotatedDocument] | None = None,
    ) -> "ZeroShotNer":
        if examples:
            raise ConfigError(
                "a zero-shot model takes no examples; use FewShotNer instead"
            )
        super().contextualize(entities, examples=None)
        return self


class FewShotNer(NerModel):
    """NER with in-context demonstrations rendered into the prompt."""

    def contextualize(
        self,
        entities: EntitySchema | Mapping[str, str],
        examples: Sequence[AnnotatedDocument] | None = None,
    ) -> "FewShotNer":
        if not examples:
            raise ConfigError("a few-shot model requires a non-empty examples list")
        super().contextualize(entities, examples=examples)
        return self
