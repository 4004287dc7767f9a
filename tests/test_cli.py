"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import subprocess
import sys

import pytest

from repro.cli import _parser, build_structure, main, read_floats


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("\n".join(str(float(i)) for i in range(100)))
    return str(path)


@pytest.fixture()
def weight_file(tmp_path):
    path = tmp_path / "weights.txt"
    path.write_text("\n".join(str(1.0 + i % 3) for i in range(100)))
    return str(path)


class TestHelpers:
    def test_read_floats(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1.5 2\n3e2\t4")
        assert read_floats(str(path)) == [1.5, 2.0, 300.0, 4.0]

    def test_build_structure_all_names(self):
        values = [1.0, 2.0, 3.0]
        for name in ("static", "dynamic", "weighted", "weighted-dynamic", "external"):
            s = build_structure(name, values, None, seed=1, block_size=4)
            assert s.count(0.0, 5.0) == 3

    def test_build_structure_unknown(self):
        with pytest.raises(ValueError):
            build_structure("nope", [1.0], None, None, 4)

    def test_kind_vocabulary_is_the_kinds_table(self):
        """The CLI and the shard facade name exactly the table's kinds."""
        from repro.core.kinds import KINDS
        from repro.shard import SHARD_KINDS

        assert SHARD_KINDS == tuple(KINDS)
        subcommands = next(
            a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command, sub in subcommands.choices.items():
            (structure,) = [a for a in sub._actions if a.dest == "structure"]
            assert structure.choices == list(KINDS), command


class TestCommands:
    def test_count(self, capsys, data_file):
        assert main(["count", "--data", data_file, "--lo", "10", "--hi", "19"]) == 0
        assert capsys.readouterr().out.strip() == "10"

    def test_sample(self, capsys, data_file):
        main(
            ["sample", "--data", data_file, "--lo", "10", "--hi", "19",
             "-t", "5", "--seed", "3"]
        )
        values = [float(line) for line in capsys.readouterr().out.split()]
        assert len(values) == 5
        assert all(10.0 <= v <= 19.0 for v in values)

    def test_sample_deterministic_with_seed(self, capsys, data_file):
        args = ["sample", "--data", data_file, "--lo", "0", "--hi", "99",
                "-t", "8", "--seed", "11"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    def test_report(self, capsys, data_file):
        main(["report", "--data", data_file, "--lo", "97", "--hi", "200"])
        assert capsys.readouterr().out.split() == ["97.0", "98.0", "99.0"]

    def test_mean(self, capsys, data_file):
        main(["mean", "--data", data_file, "--lo", "0", "--hi", "99",
              "-t", "400", "--seed", "5"])
        out = capsys.readouterr().out
        assert "mean=" in out and "K=100" in out

    def test_weighted_structure(self, capsys, data_file, weight_file):
        main(
            ["sample", "--data", data_file, "--weights", weight_file,
             "--structure", "weighted", "--lo", "0", "--hi", "99",
             "-t", "4", "--seed", "6"]
        )
        assert len(capsys.readouterr().out.split()) == 4

    def test_external_structure(self, capsys, data_file):
        main(
            ["count", "--data", data_file, "--structure", "external",
             "--block-size", "16", "--lo", "5", "--hi", "14"]
        )
        assert capsys.readouterr().out.strip() == "10"

    def test_batch(self, capsys, data_file, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("10 19 100\n0 99\n# a comment line\n\n40 49 50\n")
        assert main(
            ["batch", "--data", data_file, "--queries", str(queries),
             "-t", "20", "--seed", "3"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # three query means + one aggregate line
        assert 10.0 <= float(lines[0]) <= 19.0
        assert 0.0 <= float(lines[1]) <= 99.0
        assert 40.0 <= float(lines[2]) <= 49.0
        assert lines[3].startswith("# queries=3 samples=170 ")

    def test_batch_dynamic_structure(self, capsys, data_file, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("5 95 64\n")
        assert main(
            ["batch", "--data", data_file, "--queries", str(queries),
             "--structure", "dynamic", "--seed", "5"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 5.0 <= float(lines[0]) <= 95.0

    def test_batch_malformed_query_file(self, data_file, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("1 2 3 4 5\n")
        with pytest.raises(ValueError):
            main(["batch", "--data", data_file, "--queries", str(queries)])

    def test_batch_ops_stream(self, capsys, data_file, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text(
            "insert 100.5\ninsert 101.5\nsample 100 102 50\n"
            "delete 100.5\n# comment\nsample 100 102\n"
        )
        assert main(
            ["batch", "--data", data_file, "--structure", "dynamic",
             "--ops", str(ops), "-t", "10", "--seed", "7"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # two query means + one aggregate line
        assert 100.0 <= float(lines[0]) <= 102.0
        assert float(lines[1]) == 101.5  # only 101.5 remains in [100, 102]
        assert lines[2].startswith("# ops=5 queries=2 updates=3 bulk_calls=")
        assert "samples=60" in lines[2]

    def test_batch_ops_weighted_dynamic(self, capsys, data_file, weight_file, tmp_path):
        ops = tmp_path / "ops.txt"
        # 'insert V W' routes the weight through the weighted bulk path; a
        # heavy weight on 101.5 must dominate the sample mean of [100, 102].
        ops.write_text(
            "insert 100.5 1.0\ninsert 101.5 10000.0\nsample 100 102 200\n"
            "delete 100.5\nsample 100 102\n"
        )
        assert main(
            ["batch", "--data", data_file, "--weights", weight_file,
             "--structure", "weighted-dynamic", "--ops", str(ops),
             "-t", "10", "--seed", "7"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert float(lines[0]) > 101.0  # weight 10000 pulls the mean up
        assert float(lines[1]) == 101.5
        assert lines[2].startswith("# ops=5 queries=2 updates=3")

    def test_batch_ops_weighted_insert_rejected_on_unweighted(
        self, data_file, tmp_path
    ):
        from repro import InvalidQueryError

        ops = tmp_path / "ops.txt"
        ops.write_text("insert 1.0 5.0\n")
        with pytest.raises(InvalidQueryError):
            main(["batch", "--data", data_file, "--structure", "dynamic",
                  "--ops", str(ops)])

    def test_batch_ops_malformed_file(self, data_file, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("upsert 1.0\n")
        with pytest.raises(ValueError):
            main(["batch", "--data", data_file, "--structure", "dynamic",
                  "--ops", str(ops)])

    def test_batch_queries_and_ops_exclusive(self, data_file, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("1 2\n")
        with pytest.raises(SystemExit):
            main(["batch", "--data", data_file, "--queries", str(queries),
                  "--ops", str(queries)])


def test_module_entry_point(data_file):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "count", "--data", data_file,
         "--lo", "0", "--hi", "49"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "50"


class TestShardedCLI:
    """The --shards / --backend flags build a ShardedIRS facade."""

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_count_and_sample_sharded(self, capsys, data_file, backend):
        assert main(["count", "--data", data_file, "--lo", "10", "--hi", "19",
                     "--shards", "3", "--backend", backend]) == 0
        assert capsys.readouterr().out.strip() == "10"
        assert main(["sample", "--data", data_file, "--lo", "10", "--hi", "19",
                     "-t", "5", "--seed", "7", "--structure", "dynamic",
                     "--shards", "3", "--backend", backend]) == 0
        values = [float(line) for line in capsys.readouterr().out.split()]
        assert len(values) == 5
        assert all(10.0 <= v <= 19.0 for v in values)

    def test_batch_sharded_matches_flat_counts(self, capsys, data_file, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("10 19 64\n0 99 32\n")
        assert main(["batch", "--data", data_file, "--queries", str(queries),
                     "--shards", "4", "--structure", "dynamic", "--seed", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3 and out[-1].startswith("# queries=2 samples=96")

    def test_weighted_sharded_defaults_unit_weights(self, capsys, data_file):
        # No --weights file: the sharded weighted facade must default to
        # unit masses exactly like the flat constructor path.
        assert main(["mean", "--data", data_file, "--lo", "0", "--hi", "99",
                     "-t", "50", "--structure", "weighted", "--shards", "4",
                     "--seed", "1"]) == 0
        assert "K=100" in capsys.readouterr().out

    def test_build_structure_sharded_kinds(self):
        values = [float(i) for i in range(64)]
        for name in ("static", "dynamic", "weighted", "weighted-dynamic",
                     "external"):
            s = build_structure(name, values, None, seed=1, block_size=8,
                                shards=4)
            assert s.count(0.0, 100.0) == 64
            s.close()

    def test_weighted_dynamic_sharded_with_weights(
        self, capsys, data_file, weight_file
    ):
        assert main(["sample", "--data", data_file, "--weights", weight_file,
                     "--structure", "weighted-dynamic", "--shards", "3",
                     "--lo", "10", "--hi", "19", "-t", "6", "--seed", "2"]) == 0
        values = [float(line) for line in capsys.readouterr().out.split()]
        assert len(values) == 6
        assert all(10.0 <= v <= 19.0 for v in values)


class TestServeCLI:
    """The serve subcommand accepts every structure kind, weighted included."""

    def test_serve_offline_weighted_dynamic(
        self, capsys, data_file, weight_file, tmp_path
    ):
        import json

        requests = tmp_path / "requests.txt"
        requests.write_text(
            '{"id": 1, "op": "sample", "lo": 10, "hi": 19, "t": 4, "seed": 9}\n'
            '{"id": 2, "op": "insert", "value": 10.5, "weight": 3.5}\n'
            '{"id": 3, "op": "count", "lo": 10, "hi": 19}\n'
        )
        assert main(
            ["serve", "--data", data_file, "--weights", weight_file,
             "--structure", "weighted-dynamic", "--requests", str(requests),
             "--seed", "4"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        replies = [json.loads(line) for line in lines if not line.startswith("#")]
        assert [r["ok"] for r in replies] == [True, True, True]
        assert len(replies[0]["result"]) == 4
        assert replies[2]["result"] == 11  # 10 initial points + the insert

    def test_serve_offline_answers_an_integer_beyond_float_range(
        self, capsys, data_file, tmp_path
    ):
        import json

        requests = tmp_path / "requests.txt"
        requests.write_text(
            '{"id": 1, "op": "ping"}\n'
            '{"id": 2, "op": "insert", "value": 1%s}\n'
            '{"id": 3, "op": "count", "lo": 10, "hi": 19}\n' % ("0" * 400)
        )
        assert main(["serve", "--data", data_file, "--requests", str(requests)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        replies = [json.loads(line) for line in lines if not line.startswith("#")]
        assert replies == [
            {"id": 1, "ok": True, "result": "pong"},
            {"id": 2, "ok": False, "error": {
                "type": "bad_request",
                "message": "field 'value' is too large for a float",
            }},
            {"id": 3, "ok": True, "result": 10},
        ]

    def test_serve_window_defaults_to_zero(self, data_file):
        args = _parser().parse_args(["serve", "--data", data_file])
        assert args.window_ms == 0.0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--memory-budget", "1"),
            ("--rate-capacity", "0.001"),
            ("--overcommit", "1.0"),
            ("--metrics-port", "0"),
            ("--trace-dir", "traces"),
        ],
    )
    def test_serve_requests_refuses_tcp_only_flags(
        self, capsys, data_file, tmp_path, flag, value
    ):
        # Offline mode reads none of these; each used to be accepted and
        # silently ignored.  An explicit --overcommit at its 1.0 default
        # is refused too.
        requests = tmp_path / "requests.txt"
        requests.write_text('{"id": 1, "op": "count", "lo": 10, "hi": 19}\n')
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--data", data_file, "--requests", str(requests),
                  flag, str(tmp_path / value) if flag == "--trace-dir" else value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not (tmp_path / "traces").exists()

    @pytest.mark.parametrize("window", ["inf", "nan", "-1"])
    def test_serve_refuses_bad_window(self, data_file, tmp_path, window):
        # Run in a subprocess with a timeout: an infinite window once hung
        # the offline server on its first request, and a negative or NaN
        # one silently meant 0.
        requests = tmp_path / "requests.txt"
        requests.write_text('{"id": 1, "op": "count", "lo": 10, "hi": 19}\n')
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--data", data_file,
             "--requests", str(requests), "--window-ms", window],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 2
        assert "--window-ms" in result.stderr
        assert result.stdout == ""
