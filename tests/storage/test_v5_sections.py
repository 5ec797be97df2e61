"""Crafted v5 ``reduction`` and ``core`` sections are rejected on load.

Version 5 no longer stores the reduced graph, the core graph or
``core_originals``; the loader derives them, so it must check what
those copies used to pin.  Each case below rewrites one section of an
honest snapshot, recomputes the CRCs (so the checksum cannot be what
rejects it) and loads the result both by copy and by ``mmap``.
"""

from __future__ import annotations

import zlib
from array import array

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import (
    index_fingerprint,
    load_ct_index_binary,
    save_ct_index_binary,
)
from repro.exceptions import SerializationError
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.storage.binary import (
    _HEADER,
    _SECTION,
    _SECTION_NAMES,
    BINARY_FORMAT_VERSION,
    MAGIC,
    _Cursor,
    _put_array,
    _read_sections,
)

#: Array order inside the v5 reduction and core sections.
REPRESENTATIVE, ORIGINALS, TWIN_CODES = range(3)
ORDER, OFFSETS, HUB_RANKS, HUB_DISTS = range(4)
ARRAY_COUNTS = {"reduction": 3, "core": 4}


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    cfg = CorePeripheryConfig(core_size=20, community_count=4, fringe_size=60)
    index = CTIndex.build(core_periphery_graph(cfg, seed=3), 4, backend="flat")
    path = tmp_path_factory.mktemp("v5") / "index.ctsnap"
    save_ct_index_binary(index, path)
    _, sections, _ = _read_sections(path)
    return index, {name: bytes(body) for name, body in sections.items()}


def _arrays(sections, name: str) -> list[array]:
    cursor = _Cursor(name, sections[name])
    arrays = [cursor.typed_array() for _ in range(ARRAY_COUNTS[name])]
    cursor.done()
    return arrays


def _write(path, sections, name: str, arrays) -> None:
    """Reassemble a snapshot around one rewritten section."""
    body = bytearray()
    for values in arrays:
        _put_array(body, values)
    sections = dict(sections, **{name: bytes(body)})
    offset = _HEADER.size + _SECTION.size * len(_SECTION_NAMES)
    table = bytearray(_HEADER.pack(MAGIC, BINARY_FORMAT_VERSION, len(_SECTION_NAMES)))
    payload = bytearray()
    for section in _SECTION_NAMES:
        data = sections[section]
        table += _SECTION.pack(section.encode("ascii"), offset, len(data), zlib.crc32(data))
        payload += data
        offset += len(data)
    path.write_bytes(bytes(table + payload))


def _explicit_originals(index, arrays) -> None:
    """Store ``originals`` instead of leaving it to be derived."""
    arrays[ORIGINALS] = array("q", index.reduction.originals)


def _folded_node(index) -> int:
    """A node folded into another node's class."""
    originals = set(index.reduction.originals)
    return next(v for v in range(index.graph.n) if v not in originals)


def _negative_class(index, arrays):
    arrays[REPRESENTATIVE] = array("q", arrays[REPRESENTATIVE])
    arrays[REPRESENTATIVE][_folded_node(index)] = -1


def _class_past_the_end(index, arrays):
    arrays[REPRESENTATIVE] = array("q", arrays[REPRESENTATIVE])
    arrays[REPRESENTATIVE][_folded_node(index)] = index.reduction.reduced.n


def _class_past_the_end_explicit(index, arrays):
    _explicit_originals(index, arrays)
    _class_past_the_end(index, arrays)


def _swapped_originals(index, arrays):
    _explicit_originals(index, arrays)
    originals = arrays[ORIGINALS]
    originals[0], originals[1] = originals[1], originals[0]


def _original_outside_the_graph(index, arrays):
    _explicit_originals(index, arrays)
    arrays[ORIGINALS][-1] = index.graph.n


def _short_representative(index, arrays):
    arrays[REPRESENTATIVE] = arrays[REPRESENTATIVE][:-1]


def _unknown_twin_code(index, arrays):
    arrays[TWIN_CODES][0] = 7


def _classes_out_of_order(index, arrays):
    # Swap the ids of the first two classes: still 0..k-1, but class 1's
    # smallest member now comes first.
    arrays[REPRESENTATIVE] = array(
        "q", [{0: 1, 1: 0}.get(c, c) for c in arrays[REPRESENTATIVE]]
    )


def _originals_not_ascending(index, arrays):
    # The same swap with the originals swapped to match: the two maps
    # agree, but keeper order no longer follows class order.
    _classes_out_of_order(index, arrays)
    _swapped_originals(index, arrays)


#: Each craft with the rejection it must meet.  Without stored
#: originals every id must follow the order of the classes' smallest
#: members, which a negative id or one past the end breaks.
REDUCTION_CRAFTS = [
    (_negative_class, "smallest members"),
    (_class_past_the_end, "smallest members"),
    (_class_past_the_end_explicit, "class outside"),
    (_swapped_originals, "disagree"),
    (_original_outside_the_graph, "disagree"),
    (_originals_not_ascending, "do not ascend"),
    (_classes_out_of_order, "smallest members"),
    (_short_representative, "maps .* nodes for a"),
    (_unknown_twin_code, "twin-kind codes"),
]


def test_fixture_folds_twins(snapshot):
    index, _ = snapshot
    assert index.reduction.removed_count > 0
    assert len(index.core_originals) >= 2


def test_rewriting_untouched_sections_round_trips(snapshot, tmp_path):
    index, sections = snapshot
    for name in ARRAY_COUNTS:
        path = tmp_path / f"{name}.ctsnap"
        _write(path, sections, name, _arrays(sections, name))
        assert index_fingerprint(load_ct_index_binary(path)) == index_fingerprint(index)


def test_explicit_originals_still_load(snapshot, tmp_path):
    index, sections = snapshot
    arrays = _arrays(sections, "reduction")
    _explicit_originals(index, arrays)
    path = tmp_path / "explicit.ctsnap"
    _write(path, sections, "reduction", arrays)
    for use_mmap in (False, True):
        loaded = load_ct_index_binary(path, mmap=use_mmap)
        assert index_fingerprint(loaded) == index_fingerprint(index)


@pytest.mark.parametrize("use_mmap", [False, True], ids=["copy", "mmap"])
@pytest.mark.parametrize(
    ("craft", "match"),
    REDUCTION_CRAFTS,
    ids=[craft.__name__.lstrip("_") for craft, _ in REDUCTION_CRAFTS],
)
def test_crafted_reduction_section_rejected(snapshot, tmp_path, craft, match, use_mmap):
    index, sections = snapshot
    arrays = _arrays(sections, "reduction")
    craft(index, arrays)
    path = tmp_path / "crafted.ctsnap"
    _write(path, sections, "reduction", arrays)
    with pytest.raises(SerializationError, match=match):
        load_ct_index_binary(path, mmap=use_mmap)


@pytest.mark.parametrize("use_mmap", [False, True], ids=["copy", "mmap"])
def test_core_store_must_label_every_core_node(snapshot, tmp_path, use_mmap):
    index, sections = snapshot
    arrays = _arrays(sections, "core")
    # One extra, empty label row: a consistent store of n + 1 nodes.
    arrays[ORDER] = array("q", [*arrays[ORDER], len(arrays[ORDER])])
    arrays[OFFSETS] = array("q", [*arrays[OFFSETS], arrays[OFFSETS][-1]])
    path = tmp_path / "core.ctsnap"
    _write(path, sections, "core", arrays)
    with pytest.raises(SerializationError, match="core section .* inconsistent"):
        load_ct_index_binary(path, mmap=use_mmap)
