import dataclasses
import ipaddress
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import minet
from minet.names import (
    ContentName,
    ForwardingInfo,
    IdKind,
    Identifier,
    ParseError,
)


def test_content_name_parse_format():
    name = ContentName.parse("/videos/movie-7/chunk/0")
    assert name.components == ("videos", "movie-7", "chunk", "0")
    assert name.text == "/videos/movie-7/chunk/0"
    assert len(name) == 4


def test_content_name_prefixes():
    name = ContentName.parse("/a/b/c")
    assert name.prefix(1).text == "/a"
    assert name.prefix(3) == name
    assert name.prefix(1).is_prefix_of(name)
    assert not name.is_prefix_of(name.prefix(2))
    with pytest.raises(ValueError):
        name.prefix(0)
    with pytest.raises(ValueError):
        name.prefix(4)


@pytest.mark.parametrize("bad", ["", "a/b", "/", "/a//b", "//"])
def test_content_name_rejects(bad):
    with pytest.raises(ParseError):
        ContentName.parse(bad)


@pytest.mark.parametrize("comps, message", [
    ((), "content name needs at least one component"),
    (("",), "empty name component"),
    (("a", ""), "empty name component"),
    ((5,), "empty name component"),
    (("a", b"b"), "empty name component"),
    (("a/b",), "component contains separator: 'a/b'"),
    (("ok", "x/y", ""), "component contains separator: 'x/y'"),
    (("ok", "", "x/y"), "empty name component"),
    (("ok", 7, "x/y"), "empty name component"),
    (("ok", "x/y", 7), "component contains separator: 'x/y'"),
    (["ok", "x/y"], "component contains separator: 'x/y'"),
])
def test_content_name_errors_name_the_first_bad_component(comps, message):
    with pytest.raises(ParseError) as info:
        ContentName(comps)
    assert str(info.value) == message


def test_identifier_parse_variants():
    cid = Identifier.parse("content:/a/b")
    assert cid.kind is IdKind.CONTENT and cid.value == ContentName.parse("/a/b")
    iid = Identifier.parse("id:alice")
    assert iid.kind is IdKind.IDENTITY and iid.value == "alice"
    gid = Identifier.parse("geo:cn.gd.sz")
    assert gid.kind is IdKind.GEO
    ip4 = Identifier.parse("ip:10.0.0.1")
    assert ip4.value == ipaddress.ip_address("10.0.0.1")
    ip6 = Identifier.parse("ip:2001:db8::1")
    assert ip6.value == ipaddress.ip_address("2001:db8::1")


@pytest.mark.parametrize("bad", ["foo:/a", "alice", "ip:999.0.0.1", "id:", "content:a"])
def test_identifier_rejects(bad):
    with pytest.raises(ParseError):
        Identifier.parse(bad)


@given(st.lists(st.text(alphabet=st.characters(blacklist_characters="/",
                                               blacklist_categories=("Cs",)),
                        min_size=1, max_size=8),
                min_size=1, max_size=6))
def test_content_name_round_trip(comps):
    name = ContentName(tuple(comps))
    assert ContentName.parse(name.text) == name


@given(st.sampled_from(["id", "geo"]),
       st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
               min_size=1, max_size=12))
def test_identifier_round_trip(scheme, body):
    text = f"{scheme}:{body}"
    parsed = Identifier.parse(text)
    assert Identifier.parse(parsed.text) == parsed


def test_identifier_hashable_and_str():
    a = Identifier.ip("10.0.0.1")
    b = Identifier.parse("ip:10.0.0.1")
    assert a == b and hash(a) == hash(b)
    assert str(a) == "ip:10.0.0.1"
    assert str(Identifier.content("/x/y")) == "content:/x/y"


def test_forwarding_info_validation():
    assert ForwardingInfo(3).face_id == 3
    with pytest.raises(ValueError):
        ForwardingInfo(-1)


def test_equal_identifiers_hash_equal_and_find_each_other():
    texts = ["content:/a/b", "id:alice", "geo:cn.gd.sz", "ip:10.0.0.1"]
    firsts = [Identifier.parse(t) for t in texts]
    table = {ident: t for ident, t in zip(firsts, texts)}
    assert {i.kind for i in firsts} == set(IdKind)
    for first, text in zip(firsts, texts):
        for again in (Identifier.parse(text),
                      pickle.loads(pickle.dumps(first))):
            assert again is not first and again == first
            assert hash(again) == hash(first)
            assert table[again] == text
            assert again.kind is first.kind


@pytest.mark.parametrize("value", [
    ContentName.parse("/a/b"),
    Identifier.parse("id:alice"),
    Identifier.content("/x/y"),
    ForwardingInfo(3, metric=2),
], ids=lambda v: type(v).__name__)
def test_value_types_are_slotted_and_frozen(value):
    cls = type(value)
    fields = [f.name for f in dataclasses.fields(value)]
    assert not hasattr(value, "__dict__")
    # an identifier keeps its hash in one slot that is not a field
    assert cls.__slots__ == tuple(fields) + (
        ("_hash",) if cls is Identifier else ())
    with pytest.raises(AttributeError):      # no slot, no dict to fall back on
        object.__setattr__(value, "extra", None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
    twin = cls(*(getattr(value, name) for name in fields))
    again = pickle.loads(pickle.dumps(value))
    for other in (twin, again):
        assert other is not value
        assert other == value and hash(other) == hash(value)
        assert {value: 1}[other] == 1


PICKLE_TEXTS = ["content:/a/b/c", "id:alice", "geo:cn.gd.sz", "ip:10.0.0.1"]


def test_unpickled_identifiers_hash_under_their_own_seed(tmp_path):
    """An identifier hashed and pickled under one PYTHONHASHSEED is found
    by an equal one under another: the kept hash is not pickled."""
    src = str(Path(minet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    blob = tmp_path / "ids.pickle"
    dump = ("import pickle, sys\n"
            "from minet.names import Identifier\n"
            f"ids = [Identifier.parse(t) for t in {PICKLE_TEXTS!r}]\n"
            "hashes = [hash(i) for i in ids]\n"
            "with open(sys.argv[1], 'wb') as fh:\n"
            "    pickle.dump((ids, hashes), fh)\n")
    load = ("import pickle, sys\n"
            "from minet.names import Identifier\n"
            "with open(sys.argv[1], 'rb') as fh:\n"
            "    ids, hashes = pickle.load(fh)\n"
            f"table = {{Identifier.parse(t): t for t in {PICKLE_TEXTS!r}}}\n"
            "assert [hash(i) for i in ids] != hashes, \\\n"
            "    'an unpickled id kept its old hash'\n"
            "print([table.get(i) for i in ids])\n")
    for hash_seed, script in (("0", dump), ("12345", load)):
        done = subprocess.run(
            [sys.executable, "-c", script, str(blob)],
            env=dict(env, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
    assert done.stdout == f"{PICKLE_TEXTS!r}\n"
