"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datagen.ground_truth import GroundTruth
from repro.tables.csv_io import write_csv
from repro.tables.table import Table


@pytest.fixture(scope="module")
def generated_corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_corpus")
    exit_code = main(
        [
            "generate",
            "--kind",
            "real",
            "--output",
            str(directory),
            "--families",
            "4",
            "--tables-per-family",
            "3",
            "--seed",
            "3",
        ]
    )
    assert exit_code == 0
    return directory


@pytest.fixture(scope="module")
def indexed_engine_path(generated_corpus_dir, tmp_path_factory):
    engine_path = tmp_path_factory.mktemp("cli_engine") / "engine.pkl"
    exit_code = main(
        [
            "index",
            "--lake",
            str(generated_corpus_dir / "csv"),
            "--output",
            str(engine_path),
            "--num-hashes",
            "128",
            "--embedding-dimension",
            "32",
        ]
    )
    assert exit_code == 0
    return engine_path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--output", "out"])
        assert args.kind == "real"
        assert args.families == 12

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "--engine", "e.pkl", "--target", "t.csv"])
        assert args.k == 10
        assert not args.joins


class TestGenerate:
    def test_writes_csvs_and_ground_truth(self, generated_corpus_dir):
        csv_files = list((generated_corpus_dir / "csv").glob("*.csv"))
        assert len(csv_files) == 4 * 3
        truth = GroundTruth.from_json(generated_corpus_dir / "ground_truth.json")
        assert truth.table_names
        assert truth.average_answer_size() > 0

    def test_synthetic_kind(self, tmp_path, capsys):
        exit_code = main(
            [
                "generate",
                "--kind",
                "synthetic",
                "--output",
                str(tmp_path / "syn"),
                "--families",
                "3",
                "--tables-per-family",
                "2",
            ]
        )
        assert exit_code == 0
        assert len(list((tmp_path / "syn" / "csv").glob("*.csv"))) == 6


class TestStats:
    def test_stats_prints_table_counts(self, generated_corpus_dir, capsys):
        exit_code = main(["stats", "--lake", str(generated_corpus_dir / "csv")])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "tables" in captured
        assert "12" in captured

    def test_stats_on_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["stats", "--lake", str(tmp_path / "empty")]) == 1


class TestIndexAndQuery:
    def test_index_persists_engine(self, indexed_engine_path):
        assert indexed_engine_path.exists()
        assert indexed_engine_path.stat().st_size > 0

    def test_index_on_empty_directory(self, tmp_path):
        (tmp_path / "none").mkdir()
        exit_code = main(
            ["index", "--lake", str(tmp_path / "none"), "--output", str(tmp_path / "e.pkl")]
        )
        assert exit_code == 1

    def test_query_returns_ranked_tables(
        self, indexed_engine_path, generated_corpus_dir, tmp_path, capsys
    ):
        target = Table.from_dict(
            "cli_target",
            {
                "Practice": ["Salford Medical Centre", "Bolton Surgery"],
                "City": ["Salford", "Bolton"],
                "Postcode": ["M3 6AF", "BL3 6PY"],
            },
        )
        target_path = write_csv(target, tmp_path / "cli_target.csv")
        exit_code = main(
            [
                "query",
                "--engine",
                str(indexed_engine_path),
                "--target",
                str(target_path),
                "-k",
                "3",
                "--joins",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Top-3 datasets" in captured
        assert "Join paths found" in captured


class TestQueryProtocolFlags:
    @pytest.fixture()
    def target_path(self, tmp_path):
        target = Table.from_dict(
            "cli_api_target",
            {
                "Practice": ["Salford Medical Centre", "Bolton Surgery"],
                "City": ["Salford", "Bolton"],
                "Postcode": ["M3 6AF", "BL3 6PY"],
            },
        )
        return write_csv(target, tmp_path / "cli_api_target.csv")

    def _query(self, indexed_engine_path, target_path, *extra):
        return main(
            [
                "query",
                "--engine",
                str(indexed_engine_path),
                "--target",
                str(target_path),
                "-k",
                "3",
                *extra,
            ]
        )

    def test_json_emits_query_response(
        self, indexed_engine_path, target_path, capsys
    ):
        import json as json_module

        from repro.core.api import QueryResponse

        exit_code = self._query(indexed_engine_path, target_path, "--json")
        captured = capsys.readouterr().out
        assert exit_code == 0
        payload = json_module.loads(captured)
        assert payload["format"] == "d3l.query_response/v1"
        assert payload["mode"] == "table"
        assert payload["results"]
        restored = QueryResponse.from_dict(payload)
        assert restored.to_dict() == payload

    def test_json_honours_explain(self, indexed_engine_path, target_path, capsys):
        import json as json_module

        exit_code = self._query(
            indexed_engine_path, target_path, "--json", "--explain"
        )
        payload = json_module.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["explain"] is True
        assert payload["results"][0]["evidence_distances"]

    def test_evidence_subset_accepted(
        self, indexed_engine_path, target_path, capsys
    ):
        exit_code = self._query(
            indexed_engine_path, target_path, "--evidence", "N,V"
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Top-3 datasets" in captured

    def test_unknown_evidence_rejected(
        self, indexed_engine_path, target_path, capsys
    ):
        exit_code = self._query(
            indexed_engine_path, target_path, "--evidence", "N,bogus"
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "unknown evidence type" in captured.err

    def test_explain_adds_decomposition_column(
        self, indexed_engine_path, target_path, capsys
    ):
        exit_code = self._query(indexed_engine_path, target_path, "--explain")
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "DN=" in captured or "evidence" in captured

    def test_json_with_joins_emits_join_paths(
        self, indexed_engine_path, target_path, capsys
    ):
        """Regression: --json --joins used to be a hard error; now the JSON
        payload carries the join_paths block and round-trips losslessly."""
        import json as json_module

        from repro.core.api import QueryResponse

        exit_code = self._query(
            indexed_engine_path, target_path, "--json", "--joins"
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cannot be combined" not in captured.err
        payload = json_module.loads(captured.out)
        assert payload["format"] == "d3l.query_response/v1"
        block = payload["join_paths"]
        assert block is not None
        assert isinstance(block["paths"], list)
        assert isinstance(block["truncated"], bool)
        assert isinstance(block["joined_tables"], list)
        restored = QueryResponse.from_dict(payload)
        assert restored.to_dict() == payload

    def test_joins_text_report_from_single_query(
        self, indexed_engine_path, target_path, capsys
    ):
        exit_code = self._query(indexed_engine_path, target_path, "--joins")
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Join paths found" in captured


class TestQueryErrorPaths:
    """Missing/corrupt inputs print one-line errors, not tracebacks."""

    def test_missing_engine_path(self, tmp_path, capsys):
        target = write_csv(
            Table.from_dict("t", {"a": ["x", "y"]}), tmp_path / "t.csv"
        )
        exit_code = main(
            ["query", "--engine", str(tmp_path / "missing.pkl"), "--target", str(target)]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "no persisted engine" in captured.err
        assert "Traceback" not in captured.err

    def test_corrupt_engine_file(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.pkl"
        corrupt.write_bytes(b"this is not a pickle")
        target = write_csv(
            Table.from_dict("t", {"a": ["x", "y"]}), tmp_path / "t.csv"
        )
        exit_code = main(
            ["query", "--engine", str(corrupt), "--target", str(target)]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.strip()
        assert "Traceback" not in captured.err

    def test_missing_target_csv(self, indexed_engine_path, tmp_path, capsys):
        exit_code = main(
            [
                "query",
                "--engine",
                str(indexed_engine_path),
                "--target",
                str(tmp_path / "missing.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.strip()
        assert "Traceback" not in captured.err

    def test_empty_target_csv(self, indexed_engine_path, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        exit_code = main(
            ["query", "--engine", str(indexed_engine_path), "--target", str(empty)]
        )
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "empty" in captured.err

    def test_stats_missing_lake_directory(self, tmp_path, capsys):
        exit_code = main(["stats", "--lake", str(tmp_path / "nowhere")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert captured.err.strip()
        assert "Traceback" not in captured.err

    def test_serve_missing_engine_path(self, tmp_path, capsys):
        exit_code = main(["serve", "--engine", str(tmp_path / "missing.pkl")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "no persisted engine" in captured.err


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--engine", "e.pkl"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 4

    def test_serve_rejects_nonpositive_workers(self, indexed_engine_path, capsys):
        exit_code = main(
            ["serve", "--engine", str(indexed_engine_path), "--workers", "0"]
        )
        assert exit_code == 1
        assert "positive" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_cache_size(self, indexed_engine_path, capsys):
        exit_code = main(
            ["serve", "--engine", str(indexed_engine_path), "--cache-size", "-3"]
        )
        assert exit_code == 1
        assert "positive" in capsys.readouterr().err

    def test_serve_rejects_out_of_range_port(self, indexed_engine_path, capsys):
        exit_code = main(
            ["serve", "--engine", str(indexed_engine_path), "--port", "70000"]
        )
        assert exit_code == 1
        assert "--port" in capsys.readouterr().err

    def test_serve_backend_flag(self):
        args = build_parser().parse_args(["serve", "--engine", "e.pkl"])
        assert args.backend == "thread"
        args = build_parser().parse_args(
            ["serve", "--engine", "e.pkl", "--backend", "process"]
        )
        assert args.backend == "process"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--engine", "e.pkl", "--backend", "quantum"]
            )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_serve_on_a_taken_port_exits_1(self, indexed_engine_path, backend):
        """The port is bound before any worker starts, so a taken port ends
        the command at once, with nothing left running."""
        import os
        import signal
        import socket
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            command = [
                sys.executable, "-m", "repro.cli", "serve",
                "--engine", str(indexed_engine_path), "--backend", backend,
                "--workers", "2", "--port", str(taken.getsockname()[1]),
            ]
            serve = subprocess.Popen(
                command,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
            try:
                _, stderr = serve.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(serve.pid, signal.SIGKILL)  # the CLI and its workers
                serve.communicate()
                pytest.fail(f"repro serve --backend {backend} on a taken port never exited")
        assert serve.returncode == 1
        assert "Address already in use" in stderr

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_serve_answers_query_and_shuts_down_cleanly(
        self, indexed_engine_path, tmp_path, capsys, backend
    ):
        """The tiny-lake serving smoke: start, one query over HTTP, SIGINT,
        clean exit — leak-freedom enforced by the autouse fixture."""
        import http.client
        import json as json_module
        import os
        import signal
        import socket
        import threading
        import time

        from repro.core.api import QueryRequest, query_request_to_wire
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        target = Table.from_dict(
            "cli_serve_target",
            {
                "Practice": ["Salford Medical Centre", "Bolton Surgery"],
                "City": ["Salford", "Bolton"],
                "Postcode": ["M3 6AF", "BL3 6PY"],
            },
        )
        wire = query_request_to_wire(QueryRequest(target=target, k=3))
        outcome = {}

        def client():
            deadline = time.monotonic() + 30.0
            try:
                while time.monotonic() < deadline:
                    try:
                        connection = http.client.HTTPConnection(
                            "127.0.0.1", port, timeout=5
                        )
                        connection.request("GET", "/healthz")
                        if connection.getresponse().status == 200:
                            break
                    except OSError:
                        time.sleep(0.05)
                    finally:
                        connection.close()
                else:
                    outcome["error"] = "server never became healthy"
                    return
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                try:
                    connection.request(
                        "POST",
                        "/query",
                        body=json_module.dumps(wire),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    outcome["status"] = response.status
                    outcome["payload"] = json_module.loads(response.read())
                finally:
                    connection.close()
            finally:
                # Process-directed (not raise_signal, which would target this
                # client thread): the serve loop polls for pending handlers.
                os.kill(os.getpid(), signal.SIGINT)

        thread = threading.Thread(target=client)
        thread.start()
        exit_code = main(
            [
                "serve",
                "--engine",
                str(indexed_engine_path),
                "--port",
                str(port),
                "--workers",
                "2",
                "--backend",
                backend,
            ]
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        captured = capsys.readouterr()
        assert outcome.get("error") is None
        assert exit_code == 0
        assert "Serving" in captured.out
        assert "Shut down cleanly." in captured.out
        assert outcome["status"] == 200
        payload = outcome["payload"]
        assert payload["format"] == "d3l.query_response/v1"
        assert payload["results"]
        # oracle: the served answer equals an in-process session, bit for bit
        from repro.core.api import DiscoverySession
        from repro.core.persistence import load_engine

        with DiscoverySession(load_engine(indexed_engine_path)) as session:
            expected = session.submit(
                QueryRequest(target=target, k=3)
            ).truncated().to_dict()
        assert payload == expected
