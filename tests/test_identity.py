"""The fixed command list of ``tools/identity.py`` covers every shipped config.

The script itself runs two trees over a few hundred commands, too slow for
this suite; only its list is checked here, so that a new config cannot drop
out of the identity check unnoticed.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_command_list_covers_every_config():
    identity = _identity()
    shipped = sorted(p.relative_to(ROOT).as_posix()
                     for folder in ("configs", "bench/configs")
                     for p in (ROOT / folder).glob("*.cfg"))
    assert sorted(identity.CONFIGS) == shipped
    cmds = identity.commands()
    assert cmds[:3] == [["reproduce", "1a"], ["reproduce", "roots"], ["reproduce", "2"]]
    for name in shipped:
        cfg = str(ROOT / name)
        runs = {" ".join(c[:1] + c[3:]) for c in cmds if c[1:3] == ["--config", cfg]}
        assert runs == {"scan --out scan.csv", "scan --format json", "roots --tau 12.493",
                        *(f"{command} --seed {seed}{out}"
                          for seed in identity.SEEDS
                          for command, out in (("solve", " --out solve.json"),
                                               ("fit-circuit", ""), ("simulate", "")))}
