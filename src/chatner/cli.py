"""Command-line interface: annotate texts, score predictions, inspect prompts.

Exit codes: 0 means every document succeeded, 2 means the run finished but
some documents failed, 1 means the run itself could not proceed (bad flags,
unusable schema, unreachable backend).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path

import click

from . import __version__
from .client import MockBackend
from .domain import ANSWER_SHAPES, EntitySchema, document_from_record, document_to_record
from .domain import read_utf8
from .engine import FewShotNer, NerModel, ZeroShotNer
from .errors import (
    AuthenticationError,
    BackendConnectionError,
    ChatnerError,
    ConfigError,
)
from .evaluation import MATCHING_MODES, read_conll_file
from .evaluation import evaluate as evaluate_documents

# A flag that sets a model parameter is stored under the parameter's name,
# and defaults to the parameter's default.
_DEFAULTS = {
    name: parameter.default
    for name, parameter in inspect.signature(NerModel).parameters.items()
}
# The short flag values of the parameters that take them.
_SHORT = {
    "method": {"single": "single_turn", "multi": "multi_turn"},
    "multi_turn_mode": {"step": "step_by_step", "final": "final_step"},
    "pos_mode": {"none": "none", "llm": "via_llm", "hook": "via_hook"},
}


def _load_hook(spec: str):
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ConfigError(f"--pos-hook must look like module:function, got {spec!r}")
    try:
        module = importlib.import_module(module_name)
        hook = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"cannot load POS hook {spec!r}: {exc}") from exc
    if not callable(hook):
        raise ConfigError(f"POS hook {spec!r} is not callable")
    return hook


def _resolve_backend(spec: str | None):
    """None means the live HTTP client; "mock:<file>" loads a scripted one."""
    if spec is None:
        return None
    kind, _, path = spec.partition(":")
    if kind == "mock" and path:
        return MockBackend.from_file(path)
    raise ConfigError(f"unknown backend {spec!r}; expected mock:<script-file>")


def _split_lines(content: str) -> list[str]:
    """``content`` cut at each "\\n", dropping a "\\r" just before it; unlike
    ``str.splitlines``, U+2028 and the other Unicode line breaks (a lone "\\r"
    too) stay in the line, as they may in the JSON records annotate writes."""
    return content.replace("\r\n", "\n").split("\n")


def _read_records(path: str, what: str):
    """The documents of a JSON list of records, or of one record per line."""
    content = read_utf8(path, f"{what} file", ConfigError)
    try:
        if content.lstrip().startswith("["):
            records = json.loads(content)
        else:
            records = (json.loads(line) for line in _split_lines(content) if line.strip())
        return [document_from_record(record) for record in records]
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read {what} from {path}: {exc}") from exc


def _read_input_texts(path: str | None) -> list[str]:
    """One document per line; a line may also be a JSON record with "text"."""
    texts = []
    for line in _split_lines(read_utf8(path, "input file", ConfigError)):
        if not line.strip():
            continue
        if line.lstrip().startswith("{"):
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError):  # read as plain text
                record = None
            if isinstance(record, dict) and isinstance(record.get("text"), str):
                texts.append(record["text"])
                continue
        texts.append(line)
    return texts


def _short_choice(flag: str, name: str, help: str):
    """A flag taking the short values of model parameter ``name``."""
    short = _SHORT[name]
    default = next(key for key, value in short.items() if value == _DEFAULTS[name])
    return click.option(flag, name, type=click.Choice(sorted(short)),
                        default=default, show_default=True, help=help)


def model_options(require_schema: bool = True):
    """Flags shared by every subcommand that can build a model."""

    def wrap(command):
        options = [
            click.option("--schema", "schema_path", required=require_schema,
                         help="JSON file mapping entity labels to descriptions."),
            click.option("--examples", "examples_path", default=None,
                         help="JSON (list or lines) of annotated example records."),
            _short_choice("--method", "method",
                          "Prompt for all entities at once, or one per turn."),
            _short_choice("--multi-mode", "multi_turn_mode",
                          "Parse every turn, or only a final combined answer."),
            click.option("--shape", "answer_shape", type=click.Choice(ANSWER_SHAPES),
                         default=_DEFAULTS["answer_shape"], show_default=True,
                         help="Expected answer shape."),
            click.option("--delimiters", nargs=2, default=None,
                         help="Custom open/close mention markers (multi-turn only)."),
            _short_choice("--pos", "pos_mode",
                          "Part-of-speech augmentation of the query text."),
            click.option("--pos-hook", default=None,
                         help="module:function returning (token, tag) pairs; "
                              "used with --pos hook."),
            click.option("--base-url", default=_DEFAULTS["base_url"], show_default=True),
            click.option("--model", default=_DEFAULTS["model"], show_default=True),
            click.option("--temperature", type=float, default=_DEFAULTS["temperature"],
                         show_default=True),
            click.option("--concurrency", "max_concurrency", type=int,
                         default=_DEFAULTS["max_concurrency"], show_default=True,
                         help="Maximum in-flight requests."),
            click.option("--retries", "max_retries", type=int,
                         default=_DEFAULTS["max_retries"], show_default=True,
                         help="Maximum retries after a retryable backend failure."),
            click.option("--backend", "backend_spec", default=None,
                         help="mock:<script-file> for an offline scripted backend."),
            click.option("--templates", default=None,
                         help="JSON file of prompt template overrides."),
        ]
        for option in reversed(options):
            command = option(command)
        return command

    return wrap


def _build_model(
    *,
    schema_path: str,
    examples_path: str | None,
    pos_hook: str | None,
    backend_spec: str | None,
    **params,
) -> NerModel:
    if (params["pos_mode"] == "hook") != (pos_hook is not None):
        raise ConfigError("--pos hook and --pos-hook module:function need each other")
    schema = EntitySchema.from_file(schema_path)
    examples = _read_records(examples_path, "examples") if examples_path else None
    cls = FewShotNer if examples else ZeroShotNer
    for name, short in _SHORT.items():
        params[name] = short[params[name]]
    model = cls(
        **params,
        pos_tagger=_load_hook(pos_hook) if pos_hook else None,
        backend=_resolve_backend(backend_spec),
    )
    model.contextualize(schema, examples=examples)
    return model


def _result_record(result) -> dict:
    record = document_to_record(result.document)
    record["warnings"] = list(result.report.warnings)
    if result.error is not None:
        record["error"] = str(result.error)
    return record


def _write_lines(path: str | None, lines: list[str]) -> None:
    payload = "".join(line + "\n" for line in lines)
    if path is None:
        click.echo(payload, nl=False)
    else:
        Path(path).write_text(payload, encoding="utf-8")


def _finish_batch(results) -> None:
    """Raise a failure that ends the run (bad credentials, no backend), or
    exit 2 if some documents failed."""
    for result in results:
        if isinstance(result.error, (AuthenticationError, BackendConnectionError)):
            raise result.error
    if any(result.error is not None for result in results):
        sys.exit(2)


class _Cli(click.Group):
    """The one place a failure becomes exit 1: a usage error, before or after
    the command name, prints click's usage message, and a ChatnerError or
    OSError prints "error: ...". With ``standalone_mode=False`` exceptions
    reach the caller, as in click."""

    def main(self, *args, standalone_mode: bool = True, **kwargs):
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            sys.exit(super().main(*args, standalone_mode=False, **kwargs))
        except click.ClickException as exc:  # usage errors among them
            exc.show()
        except (ChatnerError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
        except click.Abort:
            click.echo("Aborted!", err=True)
        sys.exit(1)


@click.group(cls=_Cli)
@click.version_option(version=__version__, prog_name="chatner")
def main() -> None:
    """Named entity recognition through chat-completion language models."""


@main.command("annotate")
@model_options()
@click.option("--input", "input_path", default=None,
              help="Input file, one document per line; default standard input.")
@click.option("--output", "output_path", default=None,
              help="Output file for JSON records; default standard output.")
def annotate(input_path, output_path, **model_flags) -> None:
    """Annotate documents and emit one JSON record per input line."""
    model = _build_model(**model_flags)
    results = model.predict(_read_input_texts(input_path))
    lines = [json.dumps(_result_record(result), ensure_ascii=False) for result in results]
    _write_lines(output_path, lines)
    _finish_batch(results)


@main.command("dump-prompt")
@model_options()
@click.option("--text", "text", default=None, help="The document to plan for.")
@click.option("--input", "input_path", default=None,
              help="Read the document from this file (first non-empty line).")
def dump_prompt(text, input_path, **model_flags) -> None:
    """Print the exact conversation annotate would submit, without any request."""
    model = _build_model(**model_flags)
    if text is None:
        candidates = _read_input_texts(input_path)
        text = candidates[0] if candidates else ""
    messages = model.plan_conversation(text)
    click.echo("\n\n".join(f"[{m.role}]\n{m.content}" for m in messages))


@main.command("evaluate")
@model_options(require_schema=False)
@click.option("--gold", "gold_path", required=True,
              help="Gold-standard CoNLL file (token-per-line, NER tag last).")
@click.option("--predictions", "predictions_path", default=None,
              help="JSON (list or lines) of document records; omitted means "
                   "annotate first.")
@click.option("--matching", type=click.Choice(MATCHING_MODES),
              default=inspect.signature(evaluate_documents).parameters["matching"].default,
              show_default=True)
@click.option("--output", "output_path", default=None,
              help="Also write the report as JSON to this file.")
def evaluate(gold_path, predictions_path, matching, output_path, **model_flags):
    """Score predictions against a gold CoNLL file and print the table."""
    results = None
    gold = read_conll_file(gold_path)
    if predictions_path is not None:
        predicted = _read_records(predictions_path, "predictions")
    else:
        if model_flags.get("schema_path") is None:
            raise ConfigError("scoring without --predictions annotates the gold texts "
                              "first and needs --schema")
        model = _build_model(**model_flags)
        results = model.predict([doc.text for doc in gold])
        predicted = [result.document for result in results]
    report = evaluate_documents(predicted, gold, matching=matching)
    click.echo(report.to_table())
    if output_path is not None:
        Path(output_path).write_text(report.to_json() + "\n", encoding="utf-8")
    if results is not None:
        _finish_batch(results)


if __name__ == "__main__":
    main()
