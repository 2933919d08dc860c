"""Every ``EngineConfig`` field is read somewhere in the package: a setting
that no code reads is an option that no test or benchmark can exercise."""

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
