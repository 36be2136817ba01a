"""The estimator: configure, contextualize with a schema, then predict.

The interface follows scikit-learn conventions: every constructor argument
is stored verbatim as a public attribute and reported by ``get_params``,
nothing is validated until :meth:`NerModel.contextualize` (the fit step),
and fitted state lives in trailing-underscore attributes. ``predict``
refuses to run before ``contextualize``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .client import BackendConfig, CompletionBackend, HttpBackend, chat_complete
from .domain import AnnotatedDocument, EntitySchema, NerConfig
from .errors import (
    ChatnerError,
    ConfigError,
    MalformedResponseError,
    NotContextualizedError,
    ParseError,
)
from .parsing import ParseReport, parse_inline, parse_json_answer
from .prompting import ChatMessage, compose_system_prompt, plan_turns, render_examples
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
    if isinstance(templates, PromptTemplateSet):
        return templates
    if isinstance(templates, (str, Path)):
        return PromptTemplateSet.from_file(templates)
    return PromptTemplateSet({} if templates is None else templates)


def _check_is_contextualized(model) -> None:
    """Raise unless ``model`` has been given its entity schema."""
    if getattr(model, "schema_", None) is None:
        raise NotContextualizedError(
            f"this {type(model).__name__} instance is not contextualized yet; "
            "call contextualize(entities=...) before predict"
        )


def _config_from_params(config_class, model):
    """An instance of the dataclass ``config_class`` from the like-named
    parameters of ``model``."""
    return config_class(
        **{field.name: getattr(model, field.name) for field in fields(config_class)}
    )


def _check_workers(workers: int) -> int:
    # Exactly an int: NaN passes ``< 1`` and then starts no thread at all.
    if type(workers) is not int or workers < 1:
        raise ConfigError(f"max_concurrency must be an int >= 1, got {workers!r}")
    return workers


@dataclass(kw_only=True, eq=False, repr=False)
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

    The remaining parameters are the connection settings of
    :class:`chatner.client.BackendConfig`. Every parameter that names a
    field of it or of :class:`chatner.domain.NerConfig` takes its default
    from there, and ``contextualize`` builds both from these parameters.
    Models compare by identity, and their repr never shows ``api_key``.
    """

    # Unannotated, so neither is a parameter.
    _example_rule = None  # "refuses" or "requires" examples; None: either
    schema_ = None  # bound by contextualize

    method: str = NerConfig.method
    multi_turn_mode: str = NerConfig.multi_turn_mode
    answer_shape: str = NerConfig.answer_shape
    delimiters: tuple[str, str] | None = NerConfig.delimiters
    pos_mode: str = NerConfig.pos_mode
    pos_tagger: Callable | None = None
    model: str = BackendConfig.model
    temperature: float = BackendConfig.temperature
    max_tokens: int = BackendConfig.max_tokens
    max_retries: int = BackendConfig.max_retries
    max_concurrency: int = 1
    templates: PromptTemplateSet | Mapping[str, str] | str | Path | None = None
    backend: CompletionBackend | None = None
    base_url: str = BackendConfig.base_url
    api_key: str | None = BackendConfig.api_key
    timeout: float = BackendConfig.timeout
    initial_backoff_ms: float = BackendConfig.initial_backoff_ms

    # -- scikit-learn style parameter plumbing ---------------------------

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        """Constructor parameters as a dict, scikit-learn style.

        ``deep`` is accepted for scikit-learn compatibility and changes
        nothing: no parameter is itself an estimator.
        """
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def set_params(self, **params: Any) -> "NerModel":
        """Update constructor parameters; unknown names raise ValueError."""
        valid = {field.name for field in fields(self)}
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    # -- lifecycle --------------------------------------------------------

    def contextualize(
        self,
        entities: EntitySchema | Mapping[str, str],
        examples: Iterable[AnnotatedDocument] | None = None,
    ) -> "NerModel":
        """Bind the entity schema (and optional few-shot examples).

        This is the fit step: it validates the whole configuration, builds
        the prompt prefix (system message plus demonstration pairs), and
        unlocks :meth:`predict`. ``examples`` may be any iterable; it is read
        once and checked against the class's rule first. Returns self.
        """
        try:
            examples = () if examples is None else tuple(examples)
        except TypeError:
            raise ConfigError(f"examples must be iterable, got {type(examples).__name__}") from None
        if self._example_rule == "refuses" and examples:
            raise ConfigError("a zero-shot model takes no examples; use FewShotNer instead")
        if self._example_rule == "requires" and not examples:
            raise ConfigError("a few-shot model requires a non-empty examples list")
        schema = entities if isinstance(entities, EntitySchema) else EntitySchema(entities)
        config = _config_from_params(NerConfig, self)
        _check_workers(self.max_concurrency)
        if config.pos_mode == "via_hook" and not callable(self.pos_tagger):
            raise ConfigError("pos_mode 'via_hook' needs the pos_tagger parameter")
        templates = _resolve_templates(self.templates)
        system = compose_system_prompt(schema, config, templates)
        demonstrations = render_examples(examples, schema, config, templates)
        prefix = [system]
        for user, assistant in demonstrations:
            prefix.extend((user, assistant))
        self.config_ = config
        self.templates_ = templates
        self.backend_ = self.backend if self.backend is not None else HttpBackend()
        self.backend_config_ = _config_from_params(BackendConfig, self)
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

    def _query(self, text: str, llm_tags: str | None = None) -> str:
        """``text`` with the part-of-speech block ``pos_mode`` asks for.

        ``via_hook`` formats the (token, tag) pairs of ``pos_tagger`` as
        ``token/TAG``; ``via_llm`` asks the backend to tag the text and uses
        its reply verbatim, unless ``llm_tags`` stands in for that reply.
        """
        pos_mode = self.config_.pos_mode
        if pos_mode == "none":
            return text
        if pos_mode == "via_hook":
            # Read at call time, so a set_params after contextualize applies.
            if not callable(self.pos_tagger):
                raise ConfigError("pos_mode 'via_hook' needs a tagger callable")
            returned = self.pos_tagger(text)
            try:
                pairs = iter(returned)
            except TypeError:
                raise ConfigError(
                    "POS tagger must return an iterable of (token, tag) pairs, "
                    f"got {type(returned).__name__}"
                ) from None
            formatted = []
            for pair in pairs:
                try:
                    token, tag = pair
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"POS tagger must yield (token, tag) pairs, got {pair!r}"
                    ) from None
                formatted.append(f"{token}/{tag}")
            tags = " ".join(formatted)
        elif llm_tags is not None:
            tags = llm_tags
        else:
            tags = self._complete((
                ChatMessage("system", self.templates_.render("pos_system")),
                ChatMessage("user", self.templates_.render("pos_request", text=text)),
            )).strip()
        return self.templates_.render("pos_block", text=text, tags=tags)

    def predict_one(self, text: str) -> tuple[AnnotatedDocument, ParseReport]:
        """Annotate one text. Backend and double-parse failures raise.

        Walks the turns of :func:`chatner.prompting.plan_turns`, parsing
        the reply to every turn that covers all labels and, in step-by-step
        mode, to every per-label turn; the result is the union of what the
        parsed turns recovered.
        """
        _check_is_contextualized(self)
        if not isinstance(text, str):
            raise TypeError(f"text must be a string, got {type(text).__name__}")
        parse_every_turn = self.config_.multi_turn_mode == "step_by_step"
        conversation = list(self.prefix_)
        annotations: set = set()
        warnings: list[str] = []
        turns = plan_turns(self._query(text), self.schema_, self.config_, self.templates_)
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
        _check_is_contextualized(self)
        # A bare string is iterable too, and would be one document per character.
        if isinstance(texts, str):
            raise TypeError("pass a sequence of texts, not a single string")
        try:
            items = list(texts)
        except TypeError:
            kind = type(texts).__name__
            raise TypeError(f"texts must be a sequence of strings, got {kind}") from None
        for item in items:
            if not isinstance(item, str):
                raise TypeError(f"texts must all be strings, got {type(item).__name__}")
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
        from concurrent.futures import ThreadPoolExecutor

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
        _check_is_contextualized(self)
        config = self.config_
        query = self._query(text, llm_tags="{pos_tags}")
        messages = list(self.prefix_)
        for message, _ in plan_turns(query, self.schema_, config, self.templates_):
            messages.append(message)
            if config.method == "multi_turn":
                messages.append(ChatMessage("assistant", "{response}"))
        return tuple(messages)


class ZeroShotNer(NerModel):
    """NER from instructions alone: the schema is the entire supervision, so
    ``contextualize`` refuses examples (an empty iterable is none)."""

    _example_rule = "refuses"


class FewShotNer(NerModel):
    """NER with in-context demonstrations rendered into the prompt;
    ``contextualize`` requires at least one example."""

    _example_rule = "requires"
