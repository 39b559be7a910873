"""The table route of cli.run_subcommand reads a line as argparse does.

cli._read_plain reads the plain spellings of a command line from a table
built from cli.OPTION_GROUPS and cli.COMMANDS, and returns None for every
other line, which argparse then reads. These tests hold the two routes to
one answer: every line the benchmark runs is read by the table, with the
attributes that argparse gives it; every seeded fuzzer draw that the table
reads, argparse reads the same; and the unusual spellings, help and usage
errors all go to argparse.
"""

from __future__ import annotations

import contextlib
import io

import pytest

import test_benchmark_digests as digests
import test_fuzz_cli as fuzz
from surfbound import cli

BASE = ["obstructions", "--surface", "ade_a3", "--divisor", "h"]
# Plain lines beyond the benchmark's, which the table must read.
PLAIN = {
    "repeated option, last wins": [*BASE, "-k", "1", "--cluster", "2", "-T", "K", "--twist=h"],
    "repeated flag": [*BASE, "--oracle", "--json", "--oracle"],
    "options before the required ones": ["obstructions", "-k", "3", "--divisor=h", "--surface",
                                         "ade_a3"],
    "= value starting with -": ["tau", "--surface", "ade_a3", "--divisor=-c1", "--twist=-K"],
    "empty values": ["tau", "--surface", "", "--divisor="],
    "value with = and spaces": ["tau", "--surface", "ade_a3", "--divisor", "h = h"],
    "every option": ["thresholds", "--surface", "ade_a3", "--divisor", "h", "-T", "K", "-k", "1",
                     "-n", "4", "--assert-no-fixed-part", "--assert-base-point-free", "--json"],
}
# Lines that the table must leave to argparse.
EDGES = {
    "no arguments": [],
    "-h": ["-h"],
    "--help": ["--help"],
    "subcommand -h": [*BASE, "-h"],
    "subcommand --help": [*BASE, "--help"],
    "abbreviation": ["obstructions", "--surf", "ade_a3", "--divisor", "h"],
    "attached short value": [*BASE, "-k2"],
    "short with =": [*BASE, "-k=2"],
    "flag with a value": [*BASE, "--json=1"],
    "value starting with -": [*BASE, "--twist", "-c1"],
    "negative number": [*BASE, "-k", "-1"],
    "--name=--": ["obstructions", "--surface", "ade_a3", "--divisor=--"],
    "bare --": [*BASE, "--"],
    "missing value": [*BASE, "-k"],
    "missing required option": ["obstructions", "--surface", "ade_a3"],
    "unknown option": [*BASE, "--bogus"],
    "option of another subcommand": [*BASE, "--curves", "c1"],
    "stray token": [*BASE, "extra"],
    "unknown subcommand": ["frobnicate", "--surface", "ade_a3"],
    "bad type": [*BASE, "-k", "x"],
}


def _argparse(argv: list[str]) -> dict:
    """argparse's attributes of a line, less the subparser; the line must parse."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            namespace = cli._parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refused {argv}: {err.getvalue()}")
    attributes = vars(namespace)
    del attributes["parser"]
    return attributes


def test_every_option_is_declared_as_the_table_reads_it():
    # the table reads a store_true flag, or an option that stores one value
    # converted by its type, with a default that is not a string to convert
    for options in cli.OPTION_GROUPS.values():
        for flags, keywords in options:
            assert keywords.keys() <= {"action", "required", "metavar", "help", "default", "type"}
            assert keywords.get("action") in (None, "store_true"), flags
            assert not ("type" in keywords and isinstance(keywords.get("default"), str)), flags


@pytest.mark.parametrize("workload", digests.WORKLOADS.WORKLOADS)
def test_the_table_reads_every_benchmark_line_as_argparse_does(workload, tmp_path):
    _, commands = digests.WORKLOADS.catalogue(workload)
    lines = {digests.WORKLOADS.command_key(argv): argv for argv in commands}
    assert lines.keys() == digests.EXPECTED[workload].keys()
    for argv in lines.values():
        argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
        namespace = cli._read_plain(argv)
        assert namespace is not None, argv
        assert vars(namespace) == _argparse(argv), argv


@pytest.mark.parametrize("seed", (1, 2, 3, 4, 5))
def test_argparse_reads_each_fuzzer_line_that_the_table_reads_the_same(seed, tmp_path):
    read = 0
    for argv in fuzz._draws(seed, tmp_path):
        namespace = cli._read_plain(argv)
        if namespace is not None:
            read += 1
            assert vars(namespace) == _argparse(argv), argv
    assert read > fuzz.DRAWS // 2


@pytest.mark.parametrize("argv", PLAIN.values(), ids=PLAIN.keys())
def test_the_table_reads_plain_spellings_as_argparse_does(argv):
    namespace = cli._read_plain(argv)
    assert namespace is not None
    assert vars(namespace) == _argparse(argv)


@pytest.mark.parametrize("argv", EDGES.values(), ids=EDGES.keys())
def test_unusual_spellings_help_and_errors_go_to_argparse(argv):
    assert cli._read_plain(argv) is None


def test_a_plain_line_does_not_build_argparse(monkeypatch, capsys):
    def refuse():
        raise AssertionError("argparse was built for a plain line")

    monkeypatch.setattr(cli, "_parser", refuse)
    assert cli.run_subcommand(["tau", "--surface", "ade_e6", "--divisor", "h", "--json"]) == 0
    assert '"tau"' in capsys.readouterr().out
