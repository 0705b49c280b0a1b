"""The comparison of tools/crosspy.py, on two directories of its own."""

import importlib.util
from pathlib import Path

# loaded by path: tools/ is not a package
_PATH = Path(__file__).resolve().parent.parent / "tools" / "crosspy.py"
_SPEC = importlib.util.spec_from_file_location("crosspy", _PATH)
crosspy = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(crosspy)


def test_a_file_differs_by_its_bytes_or_by_being_on_one_side(tmp_path):
    first, other = tmp_path / "a", tmp_path / "b"
    for d in (first, other):
        d.mkdir()
        (d / "same.json").write_bytes(b'{"ok": true}\n')
    assert crosspy.differing(first, other) == []
    (first / "bytes.json").write_bytes(b'{"x": 1}\n')
    (other / "bytes.json").write_bytes(b'{"x": 1} \n')
    (first / "first-only.json").write_bytes(b"")
    (other / "other-only.json").write_bytes(b"")
    assert crosspy.differing(first, other) == ["bytes.json", "first-only.json", "other-only.json"]
    assert crosspy.differing(other, first) == ["bytes.json", "first-only.json", "other-only.json"]

