"""Packaging metadata: ``pyproject.toml`` describes the importable package."""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import pytest

import repro
from repro import cli

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def load_project() -> dict:
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def test_version_matches_package():
    assert load_project()["version"] == repro.__version__


def test_name_and_runtime_dependency():
    project = load_project()
    assert project["name"] == "repro"
    assert "numpy" in project["dependencies"]


def test_console_script_resolves_to_cli_main():
    target = load_project()["scripts"]["repro-gossip"]
    module_name, _, attr = target.partition(":")
    main = getattr(importlib.import_module(module_name), attr)
    assert main is cli.main
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
