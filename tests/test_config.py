"""``EngineConfig`` holds only settings a caller changes, and every field is
read somewhere in the package: a setting that no code reads is an option
that no test or benchmark can exercise."""

import ast
import dataclasses
import pathlib

import pdf_extractor_ray
from pdf_extractor_ray.config import EngineConfig


def test_every_config_field_is_read():
    root = pathlib.Path(pdf_extractor_ray.__file__).parent
    read: set[str] = set()
    for path in root.rglob("*.py"):
        if path == root / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f.name for f in dataclasses.fields(EngineConfig) if f.name not in read]
    assert not unread, f"EngineConfig fields read nowhere: {unread}"


def test_config_fields_are_the_settable_ones():
    """The fields and why each one is a setting, not a constant:

    - ``validation_enabled``, ``problems_enabled``,
      ``validation_similarity_method``, ``pdf_password`` and
      ``pdf_password_col``: the CLI sets them.
    - ``num_partitions``: the output layout, a deployment setting.
    - ``html_batch_size``: the perfbench replay reads it, and batch-size
      sweeps vary it.

    Thresholds no caller changes are module constants beside their readers.
    """
    assert {f.name for f in dataclasses.fields(EngineConfig)} == {
        "validation_enabled",
        "problems_enabled",
        "validation_similarity_method",
        "pdf_password",
        "pdf_password_col",
        "num_partitions",
        "html_batch_size",
    }
