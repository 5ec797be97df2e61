"""Crafted ``elim`` sections: ids are range-checked and bags obey Lemma 2
on every load path.

The section's arrays are signed, so a node id ``v - n`` is a valid
number that Python's negative indexing would silently alias to node
``v``; and an in-range bag neighbor eliminated at or before its bag
would close a loop in the forest's parent array.  Each case below
rewrites one array of an honest snapshot,
recomputes the CRCs (so the checksum cannot be what rejects it) and
loads the result both by copy and by ``mmap``.
"""

from __future__ import annotations

import json
import zlib
from array import array

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import (
    index_fingerprint,
    load_ct_index,
    load_ct_index_binary,
    save_ct_index,
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

#: Array order inside the elim section.
ORDER, COUNTS, NEIGHBORS, LOCAL, CORE_NODES, CORE_COUNTS, CORE_TARGETS, CORE_WEIGHTS = range(8)


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    cfg = CorePeripheryConfig(core_size=20, community_count=4, fringe_size=60)
    index = CTIndex.build(core_periphery_graph(cfg, seed=3), 4, backend="flat")
    path = tmp_path_factory.mktemp("elim") / "index.ctsnap"
    save_ct_index_binary(index, path)
    _, sections, _ = _read_sections(path)
    return index, {name: bytes(body) for name, body in sections.items()}


def _elim_arrays(sections) -> list[list]:
    cursor = _Cursor("elim", sections["elim"])
    arrays = [list(cursor.typed_array()) for _ in range(8)]
    cursor.done()
    return arrays


def _write(path, sections, arrays) -> None:
    """Reassemble a snapshot around a rewritten elim section."""
    elim = bytearray()
    for i, values in enumerate(arrays):
        typecode = "d" if i in (LOCAL, CORE_WEIGHTS) and any(
            isinstance(v, float) for v in values
        ) else "q"
        _put_array(elim, array(typecode, values))
    sections = dict(sections, elim=bytes(elim))
    offset = _HEADER.size + _SECTION.size * len(_SECTION_NAMES)
    table = bytearray(_HEADER.pack(MAGIC, BINARY_FORMAT_VERSION, len(_SECTION_NAMES)))
    body = bytearray()
    for name in _SECTION_NAMES:
        payload = sections[name]
        table += _SECTION.pack(name.encode("ascii"), offset, len(payload), zlib.crc32(payload))
        body += payload
        offset += len(payload)
    path.write_bytes(bytes(table + body))


def _n(index) -> int:
    return index.reduction.reduced.n


def _alias_order(arrays, n):
    arrays[ORDER][0] -= n


def _past_end_order(arrays, n):
    arrays[ORDER][0] = n


def _alias_bag_neighbor(arrays, n):
    arrays[NEIGHBORS][0] -= n


def _past_end_bag_neighbor(arrays, n):
    arrays[NEIGHBORS][-1] = n


def _past_end_core_node(arrays, n):
    arrays[CORE_NODES][-1] = n


def _alias_core_node(arrays, n):
    arrays[CORE_NODES][0] -= n


def _alias_core_target(arrays, n):
    arrays[CORE_TARGETS][0] -= n


def _past_end_core_target(arrays, n):
    arrays[CORE_TARGETS][-1] = n


def _duplicate_order(arrays, n):
    arrays[ORDER][1] = arrays[ORDER][0]


def _ragged_counts(arrays, n):
    arrays[COUNTS].pop()


def _short_counts(arrays, n):
    arrays[COUNTS][-1] += 1


def _negative_count(arrays, n):
    # Same total, one negative bag size: offsets would run backwards.
    first = arrays[COUNTS][0]
    arrays[COUNTS][0] = -1
    arrays[COUNTS][1] += first + 1


def _ragged_core_counts(arrays, n):
    arrays[CORE_COUNTS][0] += 1


def _bag_slot(arrays, *, first_pos: int) -> tuple[int, int]:
    """``(pos, index)`` of the first neighbor slot of the last non-empty
    bag at or after ``first_pos``."""
    counts = arrays[COUNTS]
    pos = max(p for p in range(first_pos, len(counts)) if counts[p])
    return pos, sum(counts[:pos])


def _bag_lists_itself(arrays, n):
    pos, slot = _bag_slot(arrays, first_pos=0)
    arrays[NEIGHBORS][slot] = arrays[ORDER][pos]


def _bag_lists_earlier_node(arrays, n):
    # Lemma 2: a bag's tree neighbors are eliminated after it.
    pos, slot = _bag_slot(arrays, first_pos=1)
    arrays[NEIGHBORS][slot] = arrays[ORDER][pos - 1]


#: Crafts whose ids are all in range but whose parent array would loop.
LOOP_CRAFTS = [_bag_lists_itself, _bag_lists_earlier_node]

CRAFTS = [
    _alias_order,
    _past_end_order,
    _alias_bag_neighbor,
    _past_end_bag_neighbor,
    _past_end_core_node,
    _alias_core_node,
    _alias_core_target,
    _past_end_core_target,
    _duplicate_order,
    _ragged_counts,
    _short_counts,
    _negative_count,
    _ragged_core_counts,
    *LOOP_CRAFTS,
]


def test_fixture_exercises_every_array(snapshot):
    index, sections = snapshot
    arrays = _elim_arrays(sections)
    assert len(arrays[ORDER]) >= 2
    assert arrays[NEIGHBORS] and arrays[CORE_NODES] and arrays[CORE_TARGETS]
    assert arrays[COUNTS][0] >= 0


def test_rewriting_an_untouched_section_round_trips(snapshot, tmp_path):
    index, sections = snapshot
    path = tmp_path / "same.ctsnap"
    _write(path, sections, _elim_arrays(sections))
    assert index_fingerprint(load_ct_index_binary(path)) == index_fingerprint(index)


@pytest.mark.parametrize("use_mmap", [False, True], ids=["copy", "mmap"])
@pytest.mark.parametrize("craft", CRAFTS, ids=lambda f: f.__name__.lstrip("_"))
def test_crafted_elim_section_rejected(snapshot, tmp_path, craft, use_mmap):
    index, sections = snapshot
    arrays = _elim_arrays(sections)
    craft(arrays, _n(index))
    path = tmp_path / "crafted.ctsnap"
    _write(path, sections, arrays)
    with pytest.raises(SerializationError, match="corrupt elim section"):
        load_ct_index_binary(path, mmap=use_mmap)


def test_json_document_ids_are_checked_too(snapshot, tmp_path):
    index, _ = snapshot
    path = tmp_path / "index.json"
    save_ct_index(index, path)
    document = json.loads(path.read_text())
    step = next(s for s in document["elimination"]["steps"] if s["neighbors"])
    alias = step["neighbors"][0] - _n(index)
    step["local_distance"][str(alias)] = step["local_distance"].pop(str(step["neighbors"][0]))
    step["neighbors"][0] = alias
    path.write_text(json.dumps(document))
    with pytest.raises(SerializationError, match="outside"):
        load_ct_index(path)


@pytest.mark.parametrize("loop_to", ["itself", "earlier"])
def test_json_document_bags_obey_lemma_2(snapshot, tmp_path, loop_to):
    index, _ = snapshot
    path = tmp_path / "index.json"
    save_ct_index(index, path)
    document = json.loads(path.read_text())
    steps = document["elimination"]["steps"]
    pos = max(p for p in range(1, len(steps)) if steps[p]["neighbors"])
    step = steps[pos]
    target = step["node"] if loop_to == "itself" else steps[pos - 1]["node"]
    step["local_distance"][str(target)] = step["local_distance"].pop(str(step["neighbors"][0]))
    step["neighbors"][0] = target
    path.write_text(json.dumps(document))
    with pytest.raises(SerializationError, match="Lemma 2"):
        load_ct_index(path)
