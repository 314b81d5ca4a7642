"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

DESCRIPTION = "Simulate a timeout in the transfer function causing an unhandled exception"


class TestGenerateCommand:
    def test_generate_prints_a_fault_summary(self, capsys):
        exit_code = main(["generate", "--target", "bank", "--description", DESCRIPTION])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "fault fault-" in captured.out
        assert "def transfer" in captured.out

    def test_generate_json_prints_the_response_envelope(self, capsys):
        exit_code = main(
            ["generate", "--target", "bank", "--description", DESCRIPTION, "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        envelope = json.loads(captured.out)
        assert envelope["status"] == "ok"
        assert envelope["kind"] == "generate"
        assert envelope["schema_version"] == "1.0"
        assert envelope["payload"]["fault"]["fault_id"].startswith("fault-")

    def test_generate_with_code_file(self, tmp_path, capsys):
        code = "def charge(amount):\n    return {'charged': amount}\n"
        code_file = tmp_path / "module.py"
        code_file.write_text(code)
        exit_code = main(
            [
                "generate",
                "--description",
                "Raise an unexpected exception in the charge function",
                "--code-file",
                str(code_file),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "def charge" in captured.out

    def test_invalid_request_exits_with_code_two(self, capsys):
        exit_code = main(["generate", "--description", "   "])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "invalid request" in captured.err


class TestDatasetCommand:
    def test_dataset_reports_record_count(self, capsys):
        exit_code = main(["dataset", "--target", "bank", "--samples", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "3 records" in captured.out

    def test_dataset_streams_to_jsonl(self, tmp_path, capsys):
        destination = tmp_path / "records.jsonl"
        exit_code = main(
            ["dataset", "--target", "bank", "--samples", "3", "--jsonl", str(destination)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert destination.exists()
        assert str(destination) in captured.out
        assert len(destination.read_text().splitlines()) == 3


class TestCampaignCommand:
    @pytest.mark.pool
    def test_campaign_summarises_each_technique(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--target",
                "bank",
                "--scenario",
                DESCRIPTION,
                "--scenario",
                "Silently corrupt the amount returned by the transfer function",
                "--budget",
                "2",
                "--mode",
                "inprocess",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "neural" in captured.out
        assert "predefined-model" in captured.out
        assert "random" in captured.out

    def test_unknown_technique_is_rejected(self, capsys):
        exit_code = main(
            [
                "campaign",
                "--target",
                "bank",
                "--scenario",
                DESCRIPTION,
                "--technique",
                "llm-magic",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown techniques" in captured.err


class TestDistributedFlags:
    def test_serve_accepts_max_queue_depth(self):
        args = build_parser().parse_args(["serve", "--max-queue-depth", "7"])
        assert args.max_queue_depth == 7
        assert build_parser().parse_args(["serve"]).max_queue_depth is None

    def test_worker_flags_parse(self):
        args = build_parser().parse_args(
            ["worker", "--connect", "127.0.0.1:7001", "--max-workers", "2", "--worker-id", "w9"]
        )
        assert args.connect == "127.0.0.1:7001"
        assert args.max_workers == 2
        assert args.worker_id == "w9"

    def test_worker_requires_connect(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])
        capsys.readouterr()

    def test_launch_workers_flags_parse(self):
        args = build_parser().parse_args(
            ["launch-workers", "-n", "5", "--connect", "127.0.0.1:7001", "--max-workers", "2"]
        )
        assert args.workers == 5
        assert args.connect == "127.0.0.1:7001"
        assert args.max_workers == 2
        assert build_parser().parse_args(["launch-workers", "--connect", "h:1"]).workers == 4

    def test_help_text_mirrors_chaos_flag_style(self, capsys):
        for command in ("worker", "launch-workers"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            text = capsys.readouterr().out
            assert "--connect HOST:PORT" in text
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        text = capsys.readouterr().out
        assert "--max-queue-depth N" in text
        assert "429" in text and "admission control" in text

    def test_worker_with_bad_address_exits_with_code_two(self, capsys):
        exit_code = main(["worker", "--connect", "not-an-address"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "worker failed" in captured.err

    def test_launch_workers_with_bad_address_exits_with_code_two(self, capsys):
        exit_code = main(["launch-workers", "--connect", "host:", "-n", "1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot launch workers" in captured.err


class TestServeCommand:
    def test_invalid_server_flag_exits_with_code_two(self, capsys):
        exit_code = main(["serve", "--port", "0", "--max-queue-depth", "-1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "max_queue_depth must be non-negative" in captured.err

    @pytest.mark.parametrize(
        "flag,value", [("--shards", "4"), ("--shard-queue-depth", "4"), ("--queue-delay", "0.01")]
    )
    def test_removed_flags_exit_with_code_two(self, flag, value, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--port", "0", flag, value])
        assert caught.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_bind_failure_exits_with_code_two(self, capsys):
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            exit_code = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot start server" in captured.err
