"""Command-line interface: annotate texts, score predictions, inspect prompts.

Exit codes: 0 means every document succeeded, 2 means the run finished but
some documents failed, 1 means the run itself could not proceed (bad flags,
unusable schema, unreachable backend).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
from pathlib import Path

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
_MATCHING = inspect.signature(evaluate_documents).parameters["matching"].default
_SHOWN = "[default: %(default)s]"  # argparse fills in the flag's default


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


def _add_model_flags(parser, require_schema: bool = True) -> None:
    """Flags shared by every subcommand that can build a model."""
    add = parser.add_argument
    add("--schema", dest="schema_path", required=require_schema,
        help="JSON file mapping entity labels to descriptions.")
    add("--examples", dest="examples_path",
        help="JSON (list or lines) of annotated example records.")
    for flag, name, help in (
        ("--method", "method", "Prompt for all entities at once, or one per turn."),
        ("--multi-mode", "multi_turn_mode", "Parse every turn, or only a final combined answer."),
        ("--pos", "pos_mode", "Part-of-speech augmentation of the query text."),
    ):  # flags taking the short values of a model parameter
        short = _SHORT[name]
        default = next(key for key, value in short.items() if value == _DEFAULTS[name])
        add(flag, dest=name, choices=sorted(short), default=default, help=f"{help} {_SHOWN}")
    add("--pos-hook", help="module:function returning (token, tag) pairs; used with --pos hook.")
    add("--shape", dest="answer_shape", choices=ANSWER_SHAPES,
        default=_DEFAULTS["answer_shape"], help=f"Expected answer shape. {_SHOWN}")
    add("--delimiters", nargs=2, help="Custom open/close mention markers (multi-turn only).")
    add("--base-url", default=_DEFAULTS["base_url"], help=_SHOWN)
    add("--model", default=_DEFAULTS["model"], help=_SHOWN)
    add("--temperature", type=float, default=_DEFAULTS["temperature"], help=_SHOWN)
    add("--concurrency", dest="max_concurrency", type=int,
        default=_DEFAULTS["max_concurrency"], help=f"Maximum in-flight requests. {_SHOWN}")
    add("--retries", dest="max_retries", type=int, default=_DEFAULTS["max_retries"],
        help=f"Maximum retries after a retryable backend failure. {_SHOWN}")
    add("--backend", dest="backend_spec",
        help="mock:<script-file> for an offline scripted backend.")
    add("--templates", help="JSON file of prompt template overrides.")


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


def _echo(text: str) -> None:
    """Write to ``sys.stdout`` at call time; UTF-8 bytes where its encoding cannot hold it."""
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    sys.stdout.flush()


def _finish_batch(results) -> None:
    """Raise a failure that ends the run (bad credentials, no backend), or
    exit 2 if some documents failed."""
    for result in results:
        if isinstance(result.error, (AuthenticationError, BackendConnectionError)):
            raise result.error
    if any(result.error is not None for result in results):
        sys.exit(2)


def annotate(input_path, output_path, **model_flags) -> None:
    """Annotate documents and emit one JSON record per input line."""
    model = _build_model(**model_flags)
    results = model.predict(_read_input_texts(input_path))
    payload = "".join(json.dumps(_result_record(result), ensure_ascii=False) + "\n"
                      for result in results)
    if output_path is None:
        _echo(payload)
    else:
        Path(output_path).write_text(payload, encoding="utf-8")
    _finish_batch(results)


def dump_prompt(text, input_path, **model_flags) -> None:
    """Print the exact conversation annotate would submit, without any request."""
    model = _build_model(**model_flags)
    if text is None:
        text = next(iter(_read_input_texts(input_path)), "")
    messages = model.plan_conversation(text)
    _echo("\n\n".join(f"[{m.role}]\n{m.content}" for m in messages) + "\n")


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
    _echo(report.to_table() + "\n")
    if output_path is not None:
        Path(output_path).write_text(report.to_json() + "\n", encoding="utf-8")
    if results is not None:
        _finish_batch(results)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: 2 is left for runs in which some documents failed."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser() -> _Parser:
    parser = _Parser(prog="chatner", description=_Main.__doc__.partition("\n")[0],
                     allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"chatner, version {__version__}")
    commands = parser.add_subparsers(dest="command")

    def command(run, require_schema: bool = True):
        sub = commands.add_parser(run.__name__.replace("_", "-"), help=run.__doc__,
                                  description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run)
        _add_model_flags(sub, require_schema)
        return sub.add_argument

    add = command(annotate)
    add("--input", dest="input_path", help="Input file, one document per line; default stdin.")
    add("--output", dest="output_path", help="Output file for JSON records; default stdout.")
    add = command(dump_prompt)
    add("--text", help="The document to plan for.")
    add("--input", dest="input_path", help="The document is this file's first non-empty line.")
    add = command(evaluate, require_schema=False)
    add("--gold", dest="gold_path", required=True,
        help="Gold-standard CoNLL file (token-per-line, NER tag last).")
    add("--predictions", dest="predictions_path",
        help="JSON (list or lines) of document records; omitted means annotate first.")
    add("--matching", choices=MATCHING_MODES, default=_MATCHING, help=_SHOWN)
    add("--output", dest="output_path", help="Also write the report as JSON to this file.")
    return parser


def _take_delimiters(args: list[str]) -> tuple[list[str], list[str] | None]:
    """``args`` without each ``--delimiters`` and the two arguments after it,
    and the last such pair. The markers are taken as they are: argparse
    would read one that starts with ``-``, such as ``-[``, as a flag. A
    ``--delimiters`` without two arguments after it is left to argparse."""
    rest, delimiters, position = [], None, 0
    while position < len(args):
        if args[position] == "--delimiters" and position + 2 < len(args):
            delimiters = args[position + 1:position + 3]
            position += 3
        else:
            rest.append(args[position])
            position += 1
    return rest, delimiters


class _Main:
    """Named entity recognition through chat-completion language models.

    ``main(args)`` runs the console script. ``main.main(args, standalone_mode=False)``
    runs it in process, and failures reach the caller; otherwise this is the
    one place a failure becomes exit 1. A usage error prints argparse's usage
    message, a ChatnerError or OSError "error: ...", and Ctrl-C "Aborted!"."""

    def main(self, args: list[str] | None = None, standalone_mode: bool = True) -> None:
        try:
            parser = _parser()
            args, delimiters = _take_delimiters(sys.argv[1:] if args is None else list(args))
            flags = vars(parser.parse_args(args))
            if flags.pop("command") is None:
                parser.error("a command is required")
            if delimiters is not None:
                flags["delimiters"] = delimiters
            return flags.pop("run")(**flags)
        except (ChatnerError, OSError, KeyboardInterrupt) as exc:
            if not standalone_mode:
                raise
            interrupted = isinstance(exc, KeyboardInterrupt)
            print("\nAborted!" if interrupted else f"error: {exc}", file=sys.stderr)
        sys.exit(1)

    __call__ = main


main = _Main()


if __name__ == "__main__":
    main()
