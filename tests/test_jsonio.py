import json
from fractions import Fraction as F
from itertools import combinations

import pytest

from boolmeasure.algebra import AtomSpace
from boolmeasure.errors import InputError, SizeError
from boolmeasure.generators import (
    gen_collection,
    gen_expander,
    gen_fragmentation,
    gen_measure,
    gen_submeasure,
)
from boolmeasure.jsonio import (
    ATOM_COUNT_CAP,
    InstanceFile,
    dumps_instance,
    element_from_json,
    element_to_json,
    format_rational,
    instance_from_json,
    instance_to_json,
    load_instance,
    parse_rational,
)


def test_rational_strings():
    assert format_rational(F(3, 6)) == "1/2"
    assert format_rational(F(2, 1)) == "2"
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("7") == F(7)
    assert parse_rational(3) == F(3)
    with pytest.raises(InputError):
        parse_rational("1/0")
    with pytest.raises(InputError):
        parse_rational("a/b")
    with pytest.raises(InputError):
        parse_rational(1.5)


def test_element_json_contract():
    sp = AtomSpace(4)
    assert element_to_json(sp.element([2, 0])) == [0, 2]
    assert element_from_json(sp, [0, 2]) == sp.element([0, 2])
    with pytest.raises(InputError):
        element_from_json(sp, [2, 0])  # must be sorted
    with pytest.raises(InputError):
        element_from_json(sp, [0, 0])  # duplicate-free
    with pytest.raises(InputError):
        element_from_json(sp, [9])
    with pytest.raises(InputError):
        element_from_json(sp, "01")


@pytest.mark.parametrize("seed", range(5))
def test_roundtrip_every_generated_kind(seed):
    instances = [
        InstanceFile(5, measure=gen_measure(5, seed)),
        InstanceFile(4, submeasure=gen_submeasure(4, seed)),
        InstanceFile(5, fragmentation=gen_fragmentation(5, seed)),
        InstanceFile(5, collection=gen_collection(5, seed)),
        InstanceFile(30, expander=gen_expander(20, 30, 3, seed)),
    ]
    for inst in instances:
        data = json.loads(dumps_instance(inst))
        back = instance_from_json(data)
        assert back == inst
        assert instance_to_json(back) == instance_to_json(inst)


def test_instance_requires_atom_count():
    with pytest.raises(InputError):
        instance_from_json({"collection": [[0]]})
    with pytest.raises(InputError):
        instance_from_json({"atom_count": 0})
    with pytest.raises(InputError):
        instance_from_json([1, 2])
    # expander-only files may borrow the point count
    inst = instance_from_json(
        {"expander": {"m": 1, "p": 9, "k": 3, "sets": [[0, 1, 2]]}}
    )
    assert inst.atom_count == 9


def test_atom_count_cap_admits_the_replay_fixture():
    # the pairwise-intersecting replay fixture on m = 120 members has one
    # atom per pair of members: 7,140 atoms
    m = 120
    atom_of = {pair: x for x, pair in enumerate(combinations(range(m), 2))}
    level = [sorted(atom_of[min(i, o), max(i, o)] for o in range(m) if o != i) for i in range(m)]
    data = {"atom_count": len(atom_of), "fragmentation": {"levels": [level] * 3}}
    inst = instance_from_json(data)
    assert inst.atom_count == 7140 <= ATOM_COUNT_CAP
    assert len(inst.fragmentation.level(1)) == m
    with pytest.raises(SizeError, match=f"exceeds the cap of {ATOM_COUNT_CAP}"):
        instance_from_json({"atom_count": ATOM_COUNT_CAP + 1, "collection": [[0], [1]]})
    with pytest.raises(SizeError):
        wide = {"m": 1, "p": ATOM_COUNT_CAP + 1, "k": 3, "sets": [[0, 1, 2]]}
        instance_from_json({"expander": wide})


def test_malformed_sections():
    with pytest.raises(InputError):
        instance_from_json({"atom_count": 2, "measure": {"weights": "nope"}})
    with pytest.raises(InputError):
        instance_from_json({"atom_count": 2, "measure": {}})
    with pytest.raises(InputError):
        instance_from_json({"atom_count": 2, "fragmentation": {"levels": []}})
    with pytest.raises(InputError):
        instance_from_json({"atom_count": 2, "collection": [[0], [5]]})
    with pytest.raises(InputError):
        instance_from_json({"atom_count": 2, "expander": {"m": 1}})
    with pytest.raises(InputError):
        instance_from_json({"atom_count": 2, "submeasure": {"values": {"0": "0/0"}}})
    for key in ("a", "0,", "0,0", "1,0", " 1"):
        with pytest.raises(InputError):
            instance_from_json({"atom_count": 2, "submeasure": {"values": {key: "1"}}})
    with pytest.raises(InputError):
        instance_from_json({"atom_count": 2, "fragmentation": {"levels": [3]}})
    good = {"m": 1, "p": 9, "k": 3, "sets": [[0, 1, 2]]}
    for bad in ({"m": "1"}, {"p": "9"}, {"k": "3"}, {"k": 1.5}, {"k": True}, {"sets": [5]},
                {"sets": [[0, 1, "2"]]}):
        with pytest.raises(InputError):
            instance_from_json({"expander": {**good, **bad}})


def test_load_instance_refuses_repeated_keys(tmp_path):
    # plain json.load keeps the last of two equal keys, so "0": "3/4" would
    # silently replace "0": "1/2"; each section must refuse the repeat instead
    texts = [
        '{"atom_count": 2, "submeasure": {"values": '
        '{"": "0", "0": "1/2", "1": "1/2", "0,1": "1", "0": "3/4"}}}',
        '{"atom_count": 2, "atom_count": 3, "collection": [[0], [1]]}',
        '{"atom_count": 2, "measure": {"weights": ["1/2", "1/2"], "weights": ["1", "0"]}}',
        '{"expander": {"m": 1, "p": 9, "k": 3, "sets": [[0, 1, 2]], "k": 4}}',
    ]
    for i, text in enumerate(texts):
        path = tmp_path / f"repeat{i}.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match="repeats the key"):
            load_instance(str(path))
    path = tmp_path / "once.json"
    path.write_text(dumps_instance(InstanceFile(4, submeasure=gen_submeasure(4, 1))), encoding="utf-8")
    assert load_instance(str(path)).submeasure == gen_submeasure(4, 1)


def test_measure_weights_normalized_on_input():
    inst = instance_from_json({"atom_count": 2, "measure": {"weights": ["2/4", "3/6"]}})
    assert inst.measure.atom_weights == (F(1, 2), F(1, 2))


def test_submeasure_key_format():
    phi = gen_submeasure(3, 1)
    data = instance_to_json(InstanceFile(3, submeasure=phi))
    keys = set(data["submeasure"]["values"])
    assert "0,1,2" in keys
    assert all("," in k or k.isdigit() for k in keys)
