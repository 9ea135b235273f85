import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_name_it_looks_up(monkeypatch):
    # bench/tracer.py wraps package functions by name; a rename or deletion
    # in the package would make Tracer.install fail on a traced bench run
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    for table in (tracer.SPANNED, tracer.COUNTED, tracer.CREATED):
        for short, names in table.items():
            module = importlib.import_module("quditswap." + short)
            for name in names:
                assert callable(getattr(module, name, None)), f"{short}.{name}"
    # CREATED classes are counted by wrapping __post_init__, which a class
    # without one would fail at install although it is still callable
    for short, names in tracer.CREATED.items():
        module = importlib.import_module("quditswap." + short)
        for name in names:
            assert hasattr(getattr(module, name), "__post_init__"), f"{short}.{name}"
    cli = importlib.import_module("quditswap.cli")
    for name in tracer.CLI_SPANS:
        assert callable(getattr(cli, name, None)), f"cli.{name}"
