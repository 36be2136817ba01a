"""Command-line interface: annotate, evaluate, dump-prompt."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from chatner.cli import main

GOLDEN_TEXT = "Fei-Fei Li is a female scientist born in China."
GOLDEN_COMPLETION = (
    "<person>Fei-Fei Li</person> is a female scientist born in "
    "<location>China</location>."
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


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

    def test_byte_identical_across_runs(self, runner, workdir):
        command = [
            "dump-prompt", "--schema", str(workdir / "schema.json"),
            "--method", "multi", "--multi-mode", "final", "--text", "abc",
        ]
        first = runner.invoke(main, command)
        second = runner.invoke(main, command)
        assert first.stdout == second.stdout

    def test_contacts_no_backend(self, runner, workdir):
        result = runner.invoke(
            main,
            [
                "dump-prompt", "--schema", str(workdir / "schema.json"),
                "--base-url", "http://127.0.0.1:9/v1", "--text", "abc",
            ],
        )
        assert result.exit_code == 0


class TestHelp:
    def test_group_lists_subcommands(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("annotate", "evaluate", "dump-prompt"):
            assert name in result.stdout
