import importlib.util
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def test_digest_tool_gives_one_total_for_one_run():
    spec = importlib.util.spec_from_file_location("digests", DIGESTS)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    found, total = tool.digests("tiny")
    assert len(found) == 31 and all(len(value) == 64 for value in found.values())
    assert tool.digests("tiny") == (found, total)
