"""The fixed lists of ``tools/``: the command list of ``identity.py`` covers every
shipped config, and every mutation of ``mutants.py`` still applies to ``src/``.

The scripts themselves run two trees over a few hundred commands, or the named
tests once per mutation, too slow for this suite; only their lists are checked
here, so that a new config cannot drop out of the identity check and an edit
of ``src/`` cannot leave a mutation that changes nothing, unnoticed.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_command_list_covers_every_config():
    identity = _tool("identity")
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


def test_numeric_summary_of_json_and_csv_pairs():
    summary = _tool("identity").numeric_summary
    a = b'{"tau0": 12.493, "roots": [0.5, 1e-9], "mode": "x", "ok": true}'
    b = b'{"tau0": 12.493, "roots": [0.5000001, 3e-9], "mode": "y", "ok": false}'
    assert summary(a, b) == "largest numeric deviation 1e-07, 2 other values differ"
    assert summary(a, b'{"tau0": 12.493}') == "JSON of different shape"
    head = b"tau,root_1,min_root\n"
    a = head + b"0,1e-14,1e-14\n0.001,0.25,2e-9\n0.002,0.5,0.5\n"
    b = head + b"0,1.00000001e-14,1e-14\n0.001,0.25000001,2e-9\n0.002,0.5,0.5\n"
    assert summary(a, b) == "2 of 9 cells changed, 1 with |value| >= 1e-6, largest change 1e-08"
    assert summary(a, head + b"0,1,1\n") == "CSV of different shape"
    assert summary(a, b"") == summary(b"a\nx\n", b"a\ny\n") == "not JSON or a CSV of numbers"


def test_each_search_text_occurs_once_in_src():
    sources = {p.name: p.read_text() for p in (ROOT / "src" / "spinpst").glob("*.py")}
    for name, search, replacement, tests in _tool("mutants").MUTATIONS:
        assert sources[name].count(search) == 1, (name, search)
        assert sum(text.count(search) for text in sources.values()) == 1, search
        assert search != replacement and tests
        for test in tests:
            path, *_, function = test.split("::")
            assert f"def {function}(" in (ROOT / path).read_text(), test
