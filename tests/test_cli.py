"""Tests for the ``repro`` command-line interface (its subcommands)."""

import pytest

from repro.cli import build_parser, main
from repro.dataset.csv_io import write_csv
from repro.dataset.examples import employee_salary_table


class TestParser:
    def test_discover_defaults(self):
        args = build_parser().parse_args(["discover", "data.csv"])
        assert args.command == "discover"
        assert args.csv == "data.csv"
        assert args.threshold == 0.1
        assert args.validator == "optimal"
        assert not args.exact

    def test_discover_flags(self):
        args = build_parser().parse_args(
            ["discover", "--demo", "--exact", "--max-level", "3",
             "--attributes", "a", "b"]
        )
        assert args.demo and args.exact
        assert args.max_level == 3
        assert args.attributes == ["a", "b"]

    def test_discover_scheduling_flags(self):
        args = build_parser().parse_args(["discover", "data.csv"])
        assert args.workers == 1
        args = build_parser().parse_args(
            ["discover", "data.csv", "--workers", "4"]
        )
        assert args.workers == 4
        for removed in ("--no-batch", "--no-pipeline", "--plan"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["discover", "data.csv", removed])
        for command in ("discover", "serve"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(
                    [command, "data.csv", "--worker-timeout", "5"]
                )
            assert excinfo.value.code == 2

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "data.csv"])
        assert args.command == "sweep"
        assert args.thresholds == [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]

    def test_sweep_thresholds(self):
        args = build_parser().parse_args(
            ["sweep", "--demo", "--thresholds", "0.05", "0.1"]
        )
        assert args.thresholds == [0.05, 0.1]

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "a.csv", "b.csv", "--port", "0", "--workers", "2"]
        )
        assert args.command == "serve"
        assert args.csv == ["a.csv", "b.csv"]
        assert args.port == 0 and args.workers == 2
        assert args.max_memo_entries is None
        assert args.max_cached_partitions is None

    def test_serve_session_bounds(self):
        args = build_parser().parse_args(
            ["serve", "a.csv", "--max-memo-entries", "500",
             "--max-cached-partitions", "16"]
        )
        assert args.max_memo_entries == 500
        assert args.max_cached_partitions == 16


class TestBareInvocation:
    """Every invocation names a subcommand; ``repro discover data.csv`` is
    the one form of a single run."""

    def test_bare_invocation_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert "discover" in err

    def test_csv_without_subcommand_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "employees.csv"
        write_csv(employee_salary_table(), path)
        with pytest.raises(SystemExit) as excinfo:
            main([str(path), "--threshold", "0.15"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestDiscoverCommand:
    def test_demo_run(self, capsys):
        assert main(["discover", "--demo", "--threshold", "0.15",
                     "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "Discovery mode: approximate" in output
        assert "order compatibilities" in output

    def test_demo_exact_run(self, capsys):
        assert main(["discover", "--demo", "--exact"]) == 0
        assert "Discovery mode: exact" in capsys.readouterr().out

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "employees.csv"
        write_csv(employee_salary_table(), path)
        code = main(["discover", str(path), "--threshold", "0.15",
                     "--attributes", "pos", "exp", "sal", "taxGrp"])
        assert code == 0
        assert "Discovered:" in capsys.readouterr().out

    def test_outliers_flag(self, capsys):
        assert main(["discover", "--demo", "--threshold", "0.2",
                     "--outliers"]) == 0
        assert "suspicious tuples" in capsys.readouterr().out

    def test_missing_input_is_an_error(self, capsys):
        assert main(["discover"]) == 2
        assert "provide a CSV file or --demo" in capsys.readouterr().err

    def test_duplicate_attributes_are_an_error(self, capsys):
        assert main(["discover", "--demo", "--attributes", "pos", "sal",
                     "pos"]) == 2
        assert "must not repeat a name" in capsys.readouterr().err

    def test_iterative_validator(self, capsys):
        assert main(["discover", "--demo", "--validator", "iterative"]) == 0

    def test_no_batch_run(self, capsys):
        """There is one validation schedule: ``--no-batch`` is unknown."""
        with pytest.raises(SystemExit) as excinfo:
            main(["discover", "--demo", "--threshold", "0.15", "--no-batch"])
        assert excinfo.value.code == 2
        assert "--no-batch" in capsys.readouterr().err

    def test_workers_run(self, capsys):
        assert main(["discover", "--demo", "--threshold", "0.15",
                     "--workers", "2"]) == 0
        assert "Discovered:" in capsys.readouterr().out

    def test_workers_without_batching_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["discover", "--demo", "--workers", "2", "--no-batch"])
        assert excinfo.value.code == 2
        assert "--no-batch" in capsys.readouterr().err


class TestSweepCommand:
    def test_demo_sweep(self, capsys):
        assert main(["sweep", "--demo", "--thresholds", "0.05", "0.1",
                     "0.15"]) == 0
        output = capsys.readouterr().out
        lines = output.splitlines()
        cells = [[cell.strip() for cell in line.split("|")]
                 for line in lines[:5]]
        assert cells[0] == ["threshold", "seconds", "#OCs", "#OFDs",
                            "memo hits"]
        assert set(lines[1]) == {"-", "+"}
        assert [row[0] for row in cells[2:]] == ["5%", "10%", "15%"]
        for row in cells[2:]:
            assert len(row) == 5
            float(row[1])
            assert all(cell.isdigit() for cell in row[2:]), row
        assert "Warm session: 3 thresholds" in output
        assert "memoised validations" in output

    def test_sweep_missing_input_is_an_error(self, capsys):
        assert main(["sweep"]) == 2
        assert "provide a CSV file or --demo" in capsys.readouterr().err

    def test_sweep_csv(self, tmp_path, capsys):
        path = tmp_path / "employees.csv"
        write_csv(employee_salary_table(), path)
        assert main(["sweep", str(path), "--thresholds", "0.1", "0.2",
                     "--max-level", "2"]) == 0
        assert "Warm session: 2 thresholds" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_requires_a_dataset(self, capsys):
        assert main(["serve"]) == 2
        assert "at least one CSV file or --demo" in capsys.readouterr().err


class TestAmbiguousNames:
    def test_csv_named_like_a_subcommand_is_read_after_discover(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_csv(employee_salary_table(), tmp_path / "sweep")
        # The first argument is always the subcommand: no file is read.
        assert main(["sweep", "--demo", "--thresholds", "0.1"]) == 0
        captured = capsys.readouterr()
        assert "Warm session: 1 thresholds" in captured.out
        assert captured.err == ""
        # After the subcommand, the name is the file's.
        assert main(["discover", "sweep", "--threshold", "0.15"]) == 0
        assert "Discovered:" in capsys.readouterr().out


class TestExtendCommand:
    def _csvs(self, tmp_path):
        table = employee_salary_table()
        base_path = tmp_path / "base.csv"
        delta_path = tmp_path / "delta.csv"
        write_csv(table.take(range(6)), base_path)
        write_csv(table.take(range(6, 9)), delta_path)
        return base_path, delta_path

    def test_extend_parser(self):
        args = build_parser().parse_args(
            ["extend", "base.csv", "delta.csv", "--threshold", "0.2",
             "--verify-cold"]
        )
        assert args.command == "extend"
        assert args.csv == "base.csv" and args.delta == "delta.csv"
        assert args.threshold == 0.2 and args.verify_cold

    def test_extend_runs_and_verifies(self, tmp_path, capsys):
        base_path, delta_path = self._csvs(tmp_path)
        assert main(["extend", str(base_path), str(delta_path),
                     "--threshold", "0.15", "--verify-cold"]) == 0
        output = capsys.readouterr().out
        assert "Baseline:" in output
        assert "Appended: 3 rows -> 9" in output
        assert "Incremental:" in output
        assert "Cold verification: identical result" in output

    def test_extend_exact_mode(self, tmp_path, capsys):
        base_path, delta_path = self._csvs(tmp_path)
        assert main(["extend", str(base_path), str(delta_path),
                     "--exact", "--max-level", "3"]) == 0
        assert "Incremental:" in capsys.readouterr().out

    def test_extend_rejects_mismatched_schemas(self, tmp_path, capsys):
        base_path, _ = self._csvs(tmp_path)
        other = tmp_path / "other.csv"
        other.write_text("x,y\n1,2\n", encoding="utf-8")
        assert main(["extend", str(base_path), str(other)]) == 2
        assert "do not match" in capsys.readouterr().err

    def test_extend_missing_file_is_an_error(self, tmp_path, capsys):
        base_path, _ = self._csvs(tmp_path)
        assert main(["extend", str(base_path),
                     str(tmp_path / "missing.csv")]) == 2
        assert "error:" in capsys.readouterr().err
