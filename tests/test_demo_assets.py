"""The shipped demo assets are exactly what scripts/make_demo.py writes, so
an edit to a writer or to fixture generation that changes their bytes
shows here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "assets" / "demo"


def test_make_demo_regenerates_assets_byte_for_byte(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("make_demo", ROOT / "scripts" / "make_demo.py")
    make_demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_demo)
    make_demo.main(tmp_path)
    capsys.readouterr()
    shipped = sorted(p.name for p in DEMO.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (DEMO / name).read_bytes(), name
