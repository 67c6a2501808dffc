"""The exception hierarchy and the command-line front end."""

import pytest

from repro import __main__ as cli
from repro.errors import (
    ConfigError,
    KernelPanic,
    OutOfMemoryError,
    ProtectionFault,
    ReproError,
    SegmentFault,
    SyscallError,
    TranslationError,
)


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for exc_type in (
            ConfigError,
            KernelPanic,
            OutOfMemoryError,
            ProtectionFault,
            SegmentFault,
            SyscallError,
            TranslationError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_faults_derive_from_translation_error(self):
        assert issubclass(SegmentFault, TranslationError)
        assert issubclass(ProtectionFault, TranslationError)

    def test_translation_error_formats_address(self):
        error = TranslationError(0xDEADBEEF)
        assert "0xdeadbeef" in str(error)
        assert error.ea == 0xDEADBEEF

    def test_syscall_error_names_the_call(self):
        error = SyscallError("mmap", "bad length")
        assert error.syscall == "mmap"
        assert "mmap" in str(error)


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E16" in out

    def test_machines(self, capsys):
        assert cli.main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "604 185MHz" in out and "hardware" in out

    def test_run_e1(self, capsys):
        assert cli.main(["run", "e1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "shape_holds: True" in out

    def test_run_unknown_experiment(self, capsys):
        assert cli.main(["run", "E99"]) == 2

    @pytest.mark.parametrize("argv", [
        ["trace", "E99"],
        ["diff", "E99", "--variant", "a,b"],
    ], ids=lambda argv: argv[0])
    def test_unknown_experiment_is_rejected_before_running(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "unknown experiment 'E99' (try: python -m repro list)\n"
        )
        assert list(tmp_path.iterdir()) == []  # no trace file

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    @pytest.mark.parametrize("flag, argv", [
        ("--sample-us", ["trace", "E1", "--sample-us", "nan"]),
        ("--sample-us", ["trace", "E1", "--sample-us", "inf"]),
        ("--sample-us", ["trace", "E1", "--sample-us", "0"]),
        ("--sample-us", ["trace", "E1", "--sample-us", "-1"]),
        ("--sample-us", ["diff", "E7", "--variant", "a,b",
                         "--sample-us", "0"]),
        ("--jobs", ["run", "E1", "--jobs", "0"]),
        ("--jobs", ["run", "E1", "--jobs", "-2"]),
        ("--sweep-every", ["check", "E1", "--sweep-every", "-1000"]),
    ], ids=lambda value: value if isinstance(value, str) else
        " ".join(value[:1] + value[-1:]))
    def test_bad_numeric_flag_is_a_usage_error(self, flag, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument {flag}: must be a positive" in err
