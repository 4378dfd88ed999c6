"""Every JSON config in README.md parses, runs, emits a fixed point and
keeps its command's invariant; no report bytes are pinned."""

import json
import re
from pathlib import Path

import pytest

from bidask import emit_config, parse_config, run
from bidask.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```json\n(.*?)^```",
                    (ROOT / "README.md").read_text(encoding="utf-8"), re.S | re.M)


def _cps_quotes_bracket(out):
    p = out["price"]
    return out["sandwich_ok"] and p["bid_lower"] <= p["bid"] <= p["ask"] <= p["ask_upper"]


INVARIANTS = {
    "price": lambda out: out["ask"] >= out["bid"],
    "hedge": lambda out: out["terminal_shortfall"] <= 1e-2 * out["initial_capital"],
    "simulate": lambda out: out["terminal_min"] <= out["terminal_mean"] <= out["terminal_max"],
    "fgbm": lambda out: out["terminal_mean"] > 0.0 and out["terminal_var"] > 0.0,
    "cps": _cps_quotes_bracket,
    "capacity": lambda out: 0.0 < out["capacity"] <= 1.0,
}


def test_readme_has_one_config_per_command():
    assert sorted(json.loads(block)["command"] for block in BLOCKS) == sorted(COMMANDS)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_config_runs_and_keeps_its_invariant(block, monkeypatch):
    monkeypatch.chdir(ROOT)  # the configs' file paths are relative to the root
    config = parse_config(block)
    emitted = emit_config(config)
    assert emit_config(parse_config(emitted)) == emitted
    assert INVARIANTS[config.command](run(config).outputs)
