"""Records behave like the frozen dataclasses they replaced.

For every ``Record`` subclass in the package, a twin built with
``dataclasses.make_dataclass`` from the same annotations and defaults
must agree on repr, equality, hash, construction and immutability."""

import dataclasses
import importlib
import itertools
import pkgutil

import pytest

import apspectra
from apspectra.folner import (Character, Converged, FolnerSchedule,
                              Oscillating)
from apspectra.points import PeriodicPoint, Record


def record_classes():
    found = set()
    for info in pkgutil.iter_modules(apspectra.__path__):
        module = importlib.import_module(f"apspectra.{info.name}")
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Record)
                  and obj is not Record}
    return sorted(found, key=lambda cls: cls.__qualname__)


RECORDS = record_classes()


def annotations(cls):
    return vars(cls).get("__annotations__", {})


def twin(cls):
    """The frozen dataclass with the fields and defaults of ``cls``."""
    spec = [(name, kind, dataclasses.field(default=vars(cls)[name]))
            if name in vars(cls) else (name, kind)
            for name, kind in annotations(cls).items()]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


# field values that pass the checks of the records that have them
VALID = {
    "Observable": [((0, 1), {"AA": 1j, "AB": 0j, "BA": 2, "BB": 0}, "o"),
                   ((0,), {"A": 1, "B": 0})],
    "FolnerSchedule": [("intervals", ((0, 10), (0, 20))),
                       ("alternating", ((-1, 1), (0, 3), (-3, 3)))],
    "Character": [(0.25,), (0.5,)],
    "AdmissibleSeminorm": [("sup",),
                           ("mean", FolnerSchedule.intervals(10, 3), 7, 2)],
    "WeightedComb": [(PeriodicPoint("AB"), {"A": 1, "B": 0}, "comb"),
                     (PeriodicPoint("AB"), {"A": 1, "B": 2j})],
}


def samples(cls):
    if cls.__name__ in VALID:
        return VALID[cls.__name__]
    n = len(annotations(cls))
    mixed = itertools.cycle(["x", (1, 2.5), None, 3 + 4j, -0.0])
    return [tuple(range(10, 10 + n)), tuple(itertools.islice(mixed, n))]


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:       # a dict field makes both unhashable
        return TypeError


def test_every_record_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) == 26
    assert {"Converged", "ScanBudget", "FourierBohrGrid",
            "AutocorrEstimate", "Observable"} <= names
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_its_frozen_dataclass_twin(cls):
    dc = twin(cls)
    names = list(annotations(cls))
    required = [name for name in names if name not in vars(cls)]
    other = type("Other", (Record,), {"__annotations__": annotations(cls)})
    for values in samples(cls):
        rec, ref = cls(*values), dc(*values)
        assert repr(rec) == repr(ref)
        assert hash_or_error(rec) == hash_or_error(ref)
        assert rec == cls(*values) and not rec != cls(*values)
        full = [getattr(rec, name) for name in names]
        assert rec != other(*full) and not rec == other(*full)
        # keywords, and positions and keywords
        given = dict(zip(names, values))
        assert cls(**given) == rec
        assert cls(*values[:1], **dict(list(given.items())[1:])) == rec
        for obj in (rec, ref):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert repr(rec) == repr(ref)
        too_many = values + (0,) * (len(names) - len(values) + 1)
        for args, kwargs in [(too_many, {}), (values, {"no_such_field": 0}),
                             (values, {names[0]: values[0]})]:
            for ctor in (dc, cls):
                with pytest.raises(TypeError):
                    ctor(*args, **kwargs)
    # defaults for the fields left out, and a missing field
    head = samples(cls)[0][:len(required)]
    assert repr(cls(*head)) == repr(dc(*head))
    if required:
        for ctor in (dc, cls):
            with pytest.raises(TypeError):
                ctor(*head[:-1])


def test_records_of_two_classes_with_equal_fields_differ():
    assert Converged(0, 1) == Converged(0, 1)
    assert Converged(0, 1) != Oscillating(0, 1)
    assert len({Converged(0, 1), Converged(0, 1), Oscillating(0, 1)}) == 2
    assert repr(Oscillating(0.5, 1)) == "Oscillating(liminf=0.5, limsup=1)"


def test_post_init_normalises_and_checks_fields():
    assert Character(1.25).theta == 0.25
    assert Character(theta=-0.25) == Character(0.75)
    assert isinstance(Character(3).theta, float)
    with pytest.raises(ValueError, match="grow"):
        FolnerSchedule("custom", ((0, 10), (0, 5)))
    with pytest.raises(ValueError, match="grow"):
        FolnerSchedule("intervals", ((0, 10), (0, 10)))
    assert len(FolnerSchedule("alternating", ((-1, 1), (0, 1)))) == 2
