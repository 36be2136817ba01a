"""Command-line interface: annotate, evaluate, dump-prompt."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chatner import ConfigError, ZeroShotNer, cli
from chatner.cli import main

GOLDEN_TEXT = "Fei-Fei Li is a female scientist born in China."
GOLDEN_COMPLETION = (
    "<person>Fei-Fei Li</person> is a female scientist born in "
    "<location>China</location>."
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def tag_tokens(text):
    """A part-of-speech hook for ``--pos-hook``: every token is tagged X."""
    return [(token, "X") for token in text.split()]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "schema.json").write_text(
        json.dumps(
            {"person": "Names of people.", "location": "Geographic places."}
        ),
        encoding="utf-8",
    )
    (tmp_path / "mock.json").write_text(
        json.dumps({"matchers": [["Fei-Fei", GOLDEN_COMPLETION]]}),
        encoding="utf-8",
    )
    (tmp_path / "input.txt").write_text(GOLDEN_TEXT + "\n", encoding="utf-8")
    return tmp_path


def args(workdir, *extra):
    return [
        "--schema", str(workdir / "schema.json"),
        "--backend", f"mock:{workdir / 'mock.json'}",
        *extra,
    ]


class TestAnnotate:
    def test_golden_document(self, runner, workdir):
        result = runner.invoke(
            main, ["annotate", *args(workdir, "--input", str(workdir / "input.txt"))]
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.stdout.strip())
        assert record["text"] == GOLDEN_TEXT
        assert {(a["start"], a["end"], a["label"]) for a in record["annotations"]} == {
            (0, 10, "person"),
            (41, 46, "location"),
        }
        assert record["warnings"] == []

    def test_reads_standard_input(self, runner, workdir):
        result = runner.invoke(
            main, ["annotate", *args(workdir)], input=GOLDEN_TEXT + "\n"
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout.strip())["text"] == GOLDEN_TEXT

    def test_json_record_input_lines(self, runner, workdir):
        line = json.dumps({"text": GOLDEN_TEXT})
        result = runner.invoke(main, ["annotate", *args(workdir)], input=line + "\n")
        assert result.exit_code == 0
        assert json.loads(result.stdout.strip())["text"] == GOLDEN_TEXT

    def test_json_line_nested_too_deep_reads_as_text(self, runner, workdir):
        line = '{"text": ' + "[" * 100_000
        (workdir / "mock.json").write_text(json.dumps({"replies": ["x"]}), encoding="utf-8")
        result = runner.invoke(main, ["annotate", *args(workdir)], input=line + "\n")
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout.strip())["text"] == line

    def test_empty_input_empty_output(self, runner, workdir):
        result = runner.invoke(main, ["annotate", *args(workdir)], input="")
        assert result.exit_code == 0
        assert result.stdout == ""

    def test_output_file_written_unescaped(self, runner, workdir):
        (workdir / "mock.json").write_text(
            json.dumps({"matchers": [["señora", "<person>señora Díaz</person> llegó"]]}),
            encoding="utf-8",
        )
        out = workdir / "out.jsonl"
        result = runner.invoke(
            main,
            ["annotate", *args(workdir, "--output", str(out))],
            input="señora Díaz llegó\n",
        )
        assert result.exit_code == 0
        assert "señora Díaz" in out.read_text(encoding="utf-8")

    def test_standard_output_that_cannot_encode_the_text(self, workdir):
        # An ASCII-only standard output: the records still come out, as
        # UTF-8, instead of a UnicodeEncodeError after every request.
        (workdir / "mock.json").write_text(json.dumps({"replies": ["x"]}), encoding="utf-8")
        env = {**os.environ, "PYTHONIOENCODING": "ascii"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "chatner.cli", "annotate", *args(workdir)],
            input="中 Ada\n".encode("utf-8"), env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
        assert json.loads(done.stdout.decode("utf-8"))["text"] == "中 Ada"

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\r"])
    def test_only_newline_ends_an_input_line(self, runner, workdir, separator):
        (workdir / "mock.json").write_text(json.dumps({"replies": ["x"]}), encoding="utf-8")
        text = f"Ada{separator}wrote it."
        result = runner.invoke(main, ["annotate", *args(workdir)], input=text + "\n")
        assert result.exit_code == 0, result.output
        (record,) = [json.loads(line) for line in result.stdout.split("\n") if line]
        assert record["text"] == text

    def test_crlf_input_gives_one_document_per_line(self, runner, workdir):
        (workdir / "mock.json").write_text(json.dumps({"replies": ["x", "x"]}), encoding="utf-8")
        (workdir / "input.txt").write_bytes(b"Ada wrote.\r\n\r\n  \r\nBob read.\r\n")
        result = runner.invoke(
            main, ["annotate", *args(workdir, "--input", str(workdir / "input.txt"))]
        )
        assert result.exit_code == 0, result.output
        texts = [json.loads(line)["text"] for line in result.stdout.split("\n") if line]
        assert texts == ["Ada wrote.", "Bob read."]

    def test_output_with_a_line_separator_reads_back(self, runner, workdir):
        text = "Ada\u2028wrote it."
        (workdir / "mock.json").write_text(
            json.dumps({"replies": ["<person>Ada</person>\u2028wrote it."]}), encoding="utf-8"
        )
        out = workdir / "out.jsonl"
        result = runner.invoke(
            main,
            ["annotate", *args(workdir, "--output", str(out))],
            input=json.dumps({"text": text}) + "\n",
        )
        assert result.exit_code == 0, result.output
        assert "\u2028" in out.read_text(encoding="utf-8")  # written unescaped
        (document,) = cli._read_records(str(out), "predictions")
        assert document.text == text
        assert [(a.start, a.end, a.label) for a in document.annotations] == [(0, 3, "person")]
        result = runner.invoke(
            main, ["dump-prompt", *args(workdir, "--examples", str(out), "--text", "x")]
        )
        assert result.exit_code == 0, result.output
        assert "<person>Ada</person>\u2028wrote it." in result.stdout

    def test_delimiters_with_single_turn_fatal(self, runner, workdir):
        result = runner.invoke(
            main,
            ["annotate", *args(workdir, "--delimiters", "@@", "##", "--method", "single")],
            input=GOLDEN_TEXT + "\n",
        )
        assert result.exit_code == 1
        assert "custom delimiters require multi-turn" in result.stderr

    def test_partial_failure_exits_2(self, runner, workdir):
        result = runner.invoke(
            main,
            ["annotate", *args(workdir)],
            input=GOLDEN_TEXT + "\nno rule matches this line\n",
        )
        assert result.exit_code == 2
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        assert "error" not in lines[0]
        assert "error" in lines[1]
        assert lines[1]["annotations"] == []

    def test_empty_rendered_message_fails_documents_not_the_run(self, runner, workdir):
        (workdir / "fr.json").write_text('{"turn_next": ""}', encoding="utf-8")
        result = runner.invoke(
            main,
            ["annotate", *args(workdir, "--method", "multi",
                               "--templates", str(workdir / "fr.json"))],
            input=GOLDEN_TEXT + "\n",
        )
        assert result.exit_code == 2, result.output
        (record,) = [json.loads(line) for line in result.stdout.splitlines()]
        assert "non-empty" in record["error"]

    def test_unusable_schema_fatal(self, runner, workdir):
        (workdir / "schema.json").write_text("{}", encoding="utf-8")
        result = runner.invoke(main, ["annotate", *args(workdir)], input="x\n")
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_unknown_backend_spec_fatal(self, runner, workdir):
        result = runner.invoke(
            main,
            ["annotate", "--schema", str(workdir / "schema.json"),
             "--backend", "carrier-pigeon"],
            input="x\n",
        )
        assert result.exit_code == 1
        assert "unknown backend" in result.stderr

    def test_unreachable_backend_fatal(self, runner, workdir):
        result = runner.invoke(
            main,
            ["annotate", "--schema", str(workdir / "schema.json"),
             "--base-url", "http://127.0.0.1:9/v1", "--retries", "0"],
            input="x\n",
        )
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_nan_temperature_fatal(self, runner, workdir):
        result = runner.invoke(
            main, ["annotate", *args(workdir, "--temperature", "nan")], input="x\n"
        )
        assert result.exit_code == 1
        assert "temperature must be finite" in result.stderr

    def test_sequence_mock_file(self, runner, workdir):
        (workdir / "mock.json").write_text(
            json.dumps({"replies": [GOLDEN_COMPLETION]}), encoding="utf-8"
        )
        result = runner.invoke(main, ["annotate", *args(workdir)], input=GOLDEN_TEXT + "\n")
        assert result.exit_code == 0


class TestEvaluate:
    def write_predictions(self, workdir, docs):
        from chatner import document_to_record

        path = workdir / "preds.jsonl"
        path.write_text(
            "".join(json.dumps(document_to_record(doc)) + "\n" for doc in docs),
            encoding="utf-8",
        )
        return path

    def test_gold_against_itself_is_perfect(self, runner, workdir):
        from chatner import read_conll_file

        gold = DATA / "sample50_iob2.conll"
        predictions = self.write_predictions(workdir, read_conll_file(gold))
        result = runner.invoke(
            main,
            ["evaluate", "--gold", str(gold), "--predictions", str(predictions)],
        )
        assert result.exit_code == 0, result.output
        table = result.stdout
        assert table.splitlines()[-1].startswith("micro")
        assert "100.0" in table
        assert table.count("100.0") >= 15  # every class and micro, all columns

    def test_count_mismatch_fatal(self, runner, workdir):
        from chatner import read_conll_file

        gold = DATA / "sample50_iob2.conll"
        docs = read_conll_file(gold)[:-1]
        predictions = self.write_predictions(workdir, docs)
        result = runner.invoke(
            main, ["evaluate", "--gold", str(gold), "--predictions", str(predictions)]
        )
        assert result.exit_code == 1
        assert "49" in result.stderr and "50" in result.stderr

    def test_annotate_then_score_with_mock(self, runner, workdir):
        gold = workdir / "gold.conll"
        gold.write_text(
            "Fei-Fei B-person\nLi I-person\nvisited O\nChina B-location\n",
            encoding="utf-8",
        )
        (workdir / "mock.json").write_text(
            json.dumps(
                {
                    "matchers": [
                        [
                            "Fei-Fei Li visited China",
                            "<person>Fei-Fei Li</person> visited "
                            "<location>China</location>",
                        ]
                    ]
                }
            ),
            encoding="utf-8",
        )
        report_path = workdir / "report.json"
        result = runner.invoke(
            main,
            [
                "evaluate", *args(workdir),
                "--gold", str(gold),
                "--output", str(report_path),
            ],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["micro"]["f1"] == 1.0

    def test_prediction_span_outside_its_text_fatal(self, runner, workdir):
        gold = workdir / "gold.conll"
        gold.write_text("a O\nb O\n", encoding="utf-8")
        predictions = workdir / "preds.jsonl"
        predictions.write_text(
            json.dumps({"text": "a b", "annotations": [{"start": 0, "end": 9, "label": "x"}]})
            + "\n",
            encoding="utf-8",
        )
        result = runner.invoke(
            main, ["evaluate", "--gold", str(gold), "--predictions", str(predictions)]
        )
        assert result.exit_code == 1
        assert str(predictions) in result.stderr
        assert "past the end of the text" in result.stderr

    @pytest.mark.parametrize(
        "annotations",
        [[{"start": 0.5, "end": 2.7, "label": "x"}], None],
        ids=["float offsets", "null annotations"],
    )
    def test_malformed_prediction_record_fatal(self, runner, workdir, annotations):
        gold = workdir / "gold.conll"
        gold.write_text("a B-x\nb I-x\n", encoding="utf-8")
        predictions = workdir / "preds.jsonl"
        predictions.write_text(
            json.dumps({"text": "a b", "annotations": annotations}) + "\n", encoding="utf-8"
        )
        result = runner.invoke(
            main, ["evaluate", "--gold", str(gold), "--predictions", str(predictions)]
        )
        assert result.exit_code == 1
        assert f"cannot read predictions from {predictions}" in result.stderr

    def test_scoring_without_predictions_needs_schema(self, runner, workdir):
        gold = DATA / "sample50_iob2.conll"
        result = runner.invoke(main, ["evaluate", "--gold", str(gold)])
        assert result.exit_code == 1
        assert "--schema" in result.stderr

    def test_predictions_as_json_list_score_as_json_lines(self, runner, workdir):
        from chatner import document_to_record, read_conll_file

        gold = DATA / "sample50_iob2.conll"
        docs = read_conll_file(gold)
        # Every second document loses its annotations, so the score is not perfect.
        docs = [doc if i % 2 else type(doc)(doc.text) for i, doc in enumerate(docs)]
        lines = self.write_predictions(workdir, docs)
        listed = workdir / "preds.json"
        listed.write_text(
            json.dumps([document_to_record(doc) for doc in docs], indent=1), encoding="utf-8"
        )
        outputs = [
            runner.invoke(main, ["evaluate", "--gold", str(gold), "--predictions", str(path)])
            for path in (lines, listed)
        ]
        assert [result.exit_code for result in outputs] == [0, 0], outputs[1].output
        assert outputs[0].stdout == outputs[1].stdout
        assert outputs[0].stdout.split()[-1] != "0"  # micro fn: gold mentions were missed

    def test_strict_matching_flag(self, runner, workdir):
        from chatner import read_conll_file

        gold = DATA / "sample50_iob2.conll"
        predictions = self.write_predictions(workdir, read_conll_file(gold))
        result = runner.invoke(
            main,
            [
                "evaluate", "--gold", str(gold),
                "--predictions", str(predictions),
                "--matching", "strict",
            ],
        )
        assert result.exit_code == 0
        assert "100.0" in result.stdout


class TestDumpPrompt:
    def test_json_zero_shot_mentions_labels_and_shape(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "dump-prompt", "--schema", str(workdir / "schema.json"),
                "--shape", "json", "--text", GOLDEN_TEXT,
            ],
        )
        assert result.exit_code == 0
        assert result.stdout.startswith("[system]")
        assert "person" in result.stdout and "location" in result.stdout
        assert "JSON" in result.stdout
        assert GOLDEN_TEXT in result.stdout

    def test_few_shot_demonstration_pairs(self, runner, workdir):
        from chatner import document_to_record
        from chatner.domain import AnnotatedDocument, Annotation

        examples = [
            AnnotatedDocument("Ana lives here", [Annotation(0, 3, "person")]),
            AnnotatedDocument("Peru is far", [Annotation(0, 4, "location")]),
        ]
        examples_path = workdir / "examples.jsonl"
        examples_path.write_text(
            "".join(json.dumps(document_to_record(d)) + "\n" for d in examples),
            encoding="utf-8",
        )
        result = runner.invoke(
            main,
            [
                "dump-prompt", "--schema", str(workdir / "schema.json"),
                "--examples", str(examples_path), "--text", "Who is Bo?",
            ],
        )
        assert result.exit_code == 0
        assert result.stdout.count("[user]") == 3  # two demos + the query
        assert result.stdout.count("[assistant]") == 2
        assert "<person>Ana</person>" in result.stdout

    def test_multi_turn_placeholders_in_schema_order(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "dump-prompt", "--schema", str(workdir / "schema.json"),
                "--method", "multi", "--text", "abc",
            ],
        )
        assert result.exit_code == 0
        assert result.stdout.count("{response}") == 2
        assert result.stdout.index("entity person") < result.stdout.index(
            "entity location"
        )

    def test_delimiters_may_start_with_a_dash(self, runner):
        schema = Path(__file__).parent / "data" / "conll_schema.json"
        result = runner.invoke(
            main,
            ["dump-prompt", "--schema", str(schema), "--method", "multi",
             "--delimiters", "-[", "]-", "--text", "x"],
        )
        assert result.exit_code == 0, result.output
        assert "between '-[' and ']-'" in result.stdout
        assert result.stdout.endswith("[assistant]\n{response}\n")

    def test_byte_identical_across_runs(self, runner, workdir):
        command = [
            "dump-prompt", "--schema", str(workdir / "schema.json"),
            "--method", "multi", "--multi-mode", "final", "--text", "abc",
        ]
        first = runner.invoke(main, command)
        second = runner.invoke(main, command)
        assert first.stdout == second.stdout

    def test_input_file_gives_its_first_document(self, runner, workdir):
        (workdir / "input.txt").write_text("\n  \nAda wrote.\nBob read.\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["dump-prompt", "--schema", str(workdir / "schema.json"),
             "--input", str(workdir / "input.txt")],
        )
        assert result.exit_code == 0, result.output
        assert result.stdout.endswith("[user]\nText:\nAda wrote.\n")

    def test_console_that_cannot_encode_the_prompt_gets_utf8(self, runner, workdir, monkeypatch):
        command = ["dump-prompt", "--schema", str(workdir / "schema.json"), "--text", "aé"]
        expected = runner.invoke(main, command).stdout
        console = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", console)
        main.main(command, standalone_mode=False)
        assert console.buffer.getvalue() == expected.encode("utf-8")
        assert expected.endswith("Text:\naé\n")

    def test_contacts_no_backend(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "dump-prompt", "--schema", str(workdir / "schema.json"),
                "--base-url", "http://127.0.0.1:9/v1", "--text", "abc",
            ],
        )
        assert result.exit_code == 0


class TestModelFlags:
    def test_no_model_flags_build_the_default_model(self, runner, workdir, monkeypatch):
        built = []
        build = cli._build_model

        def spy(**flags):
            built.append(build(**flags))
            return built[-1]

        monkeypatch.setattr(cli, "_build_model", spy)
        result = runner.invoke(
            main, ["dump-prompt", "--schema", str(workdir / "schema.json"), "--text", "Ada"]
        )
        assert result.exit_code == 0, result.output
        assert built[0].get_params() == ZeroShotNer().get_params()

    def test_pos_hook_tags_the_query(self, runner, workdir):
        result = runner.invoke(
            main,
            ["dump-prompt", "--schema", str(workdir / "schema.json"), "--text", "Ada wrote",
             "--pos", "hook", "--pos-hook", f"{__name__}:tag_tokens"],
        )
        assert result.exit_code == 0, result.output
        assert "Part-of-speech tags:\nAda/X wrote/X" in result.stdout

    @pytest.mark.parametrize(
        "flags",
        [["--pos-hook", f"{__name__}:tag_tokens"], ["--pos", "hook"]],
        ids=["hook without --pos hook", "--pos hook without hook"],
    )
    def test_pos_hook_flags_need_each_other(self, runner, workdir, flags):
        result = runner.invoke(
            main, ["dump-prompt", "--schema", str(workdir / "schema.json"), "--text", "Ada",
                   *flags],
        )
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith("error: ")
        assert "--pos hook" in result.stderr and "--pos-hook" in result.stderr

    @pytest.mark.parametrize(
        "spec, message",
        [("tag_tokens", "--pos-hook must look like module:function, got 'tag_tokens'"),
         ("no_such_module_for_chatner:tag", "cannot load POS hook 'no_such_module_for_chatner:tag'"),
         (f"{__name__}:no_such_hook", f"cannot load POS hook '{__name__}:no_such_hook'"),
         (f"{__name__}:GOLDEN_TEXT", f"POS hook '{__name__}:GOLDEN_TEXT' is not callable")],
        ids=["no colon", "module not found", "no such attribute", "not callable"],
    )
    def test_unusable_pos_hook_is_named(self, runner, workdir, spec, message):
        result = runner.invoke(
            main, ["dump-prompt", "--schema", str(workdir / "schema.json"), "--text", "Ada",
                   "--pos", "hook", "--pos-hook", spec],
        )
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "flag",
        ["--input", "--schema", "--examples", "--templates", "--backend",
         "--gold", "--predictions"],
    )
    def test_file_that_is_not_utf8_is_named(self, runner, workdir, flag):
        bad = workdir / "latin1.txt"
        bad.write_bytes(b"caf\xe9\n")
        if flag in ("--gold", "--predictions"):
            command = ["evaluate", "--gold", str(DATA / "sample50_iob2.conll"),
                       "--predictions", str(workdir / "input.txt")]
        else:
            command = ["annotate", *args(workdir, "--input", str(workdir / "input.txt"))]
        value = f"mock:{bad}" if flag == "--backend" else str(bad)
        result = runner.invoke(main, [*command, flag, value])
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith("error: ")
        assert f"{bad} is not UTF-8 text" in result.stderr

    @pytest.mark.parametrize(
        "flag",
        ["--input", "--schema", "--examples", "--templates", "--backend",
         "--gold", "--predictions", "standard input"],
    )
    def test_file_with_byte_order_mark_reads_as_without(self, runner, workdir, flag):
        from chatner import document_to_record, read_conll_file

        gold = DATA / "sample50_iob2.conll"
        (workdir / "preds.jsonl").write_text(
            "".join(json.dumps(document_to_record(d)) + "\n" for d in read_conll_file(gold)),
            encoding="utf-8",
        )
        (workdir / "examples.jsonl").write_text(
            json.dumps({"text": "Ana lives here",
                        "annotations": [{"start": 0, "end": 3, "label": "person"}]}) + "\n",
            encoding="utf-8",
        )
        (workdir / "templates.json").write_text(
            json.dumps({"user_text": "Texto:\n{text}"}), encoding="utf-8"
        )
        if flag in ("--gold", "--predictions"):
            command, names = "evaluate", {"--gold": gold, "--predictions": "preds.jsonl"}
        else:
            command, names = "annotate", {
                "--schema": "schema.json", "--backend": "mock.json",
                "--examples": "examples.jsonl", "--templates": "templates.json",
                "--input": "input.txt",
            }
        files = {name: workdir / file for name, file in names.items()}
        stdin = files.pop("--input").read_bytes() if flag == "standard input" else b""

        def run(prefix: bytes) -> str:
            paths = dict(files)
            if flag in paths:
                paths[flag] = workdir / f"copy-{files[flag].name}"
                paths[flag].write_bytes(prefix + files[flag].read_bytes())
            argv = [command]
            for name, path in paths.items():
                argv += [name, f"mock:{path}" if name == "--backend" else str(path)]
            result = runner.invoke(main, argv, input=prefix + stdin)
            assert result.exit_code == 0, result.output
            return result.stdout

        plain = run(b"")
        assert f'"text": "{GOLDEN_TEXT}"' in plain or plain.splitlines()[-1].startswith("micro")
        assert run(b"\xef\xbb\xbf") == plain


    @pytest.mark.parametrize(
        "flag", ["--schema", "--examples", "--templates", "--backend", "--predictions"]
    )
    def test_json_nested_too_deep_is_named(self, runner, workdir, flag):
        deep = workdir / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        if flag == "--predictions":
            command = ["evaluate", "--gold", str(DATA / "sample50_iob2.conll")]
        else:
            command = ["annotate", *args(workdir, "--input", str(workdir / "input.txt"))]
        value = f"mock:{deep}" if flag == "--backend" else str(deep)
        result = runner.invoke(main, [*command, flag, value])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert str(deep) in result.stderr
        assert "Traceback" not in result.output


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dump-prompt", "--method", "bogus"], "argument --method: invalid choice: 'bogus'"),
            (["dump-prompt", "--concurrency", "abc"], "argument --concurrency: invalid int value"),
            (["nope"], "argument command: invalid choice: 'nope'"),
            (["--bogus"], "unrecognized arguments: --bogus"),
            (["dump-prompt", "--temp", "0"], "unrecognized arguments: --temp 0"),
            ([], "a command is required"),
        ],
        ids=["bad choice", "bad integer", "unknown command", "option before the command",
             "abbreviated option", "no command"],
    )
    def test_usage_error_exits_1_with_the_usage_message(self, runner, workdir, argv, message):
        if argv[:1] == ["dump-prompt"]:
            argv = [*argv, "--schema", str(workdir / "schema.json"), "--text", "x"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith("usage: chatner")
        assert f"error: {message}" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["annotate", "dump-prompt"])
    def test_schema_is_required(self, runner, workdir, command):
        result = runner.invoke(main, [command], input=GOLDEN_TEXT + "\n")
        assert result.exit_code == 1, result.output
        assert f"chatner {command}: error: the following arguments are required: --schema" \
            in result.stderr

    @pytest.mark.parametrize(
        "placeholder", ["{text[x]}", "{text.nope}", "{text:{width}}", "{text!z}", "{text:d}"]
    )
    @pytest.mark.parametrize("command", ["annotate", "dump-prompt"])
    def test_template_no_string_can_fill_ends_the_run(self, runner, workdir, command,
                                                      placeholder):
        templates = workdir / "t.json"
        templates.write_text(json.dumps({"user_text": f"Text: {placeholder}"}), encoding="utf-8")
        result = runner.invoke(
            main, [command, *args(workdir, "--templates", str(templates),
                                  "--input", str(workdir / "input.txt"))],
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: template 'user_text' ")
        assert result.stdout == ""

    def test_failures_reach_a_caller_outside_standalone_mode(self, workdir):
        (workdir / "schema.json").write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigError):
            main.main(args=["dump-prompt", *args(workdir), "--text", "x"],
                      standalone_mode=False)

    def test_interrupt_prints_aborted_and_exits_1(self, runner, workdir, monkeypatch):
        def interrupted(**flags):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_build_model", interrupted)
        argv = ["dump-prompt", "--schema", str(workdir / "schema.json"), "--text", "x"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1, result.output
        assert result.stderr == "\nAborted!\n"
        with pytest.raises(KeyboardInterrupt):
            main.main(args=argv, standalone_mode=False)

    def test_bad_mock_script_is_named(self, runner, workdir):
        (workdir / "mock.json").write_text('{"replies": "<person>Ada</person>"}',
                                           encoding="utf-8")
        result = runner.invoke(main, ["annotate", *args(workdir)], input="Ada\n")
        assert result.exit_code == 1, result.output
        assert result.stderr == (
            f"error: mock script {workdir / 'mock.json'}: replies must be a non-empty "
            "list, got '<person>Ada</person>'\n"
        )


class TestHelp:
    def test_group_lists_subcommands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("annotate", "evaluate", "dump-prompt"):
            assert name in result.stdout

    def test_matching_flag_lists_the_modes_and_the_default(self, runner):
        result = runner.invoke(main, ["evaluate", "--help"])
        assert result.exit_code == 0
        assert "--matching {relaxed,strict}" in result.stdout
        assert "[default: relaxed]" in result.stdout

    @pytest.mark.parametrize(
        "flag, start", [("-h", "usage: chatner"), ("--version", "chatner, version 0.1.0\n")]
    )
    def test_short_help_and_version(self, runner, flag, start):
        result = runner.invoke(main, [flag])
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith(start)
