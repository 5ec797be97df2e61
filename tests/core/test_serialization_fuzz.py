"""Failure injection: corrupted index files must fail loudly and cleanly.

Two corpora share one built index:

* **JSON documents** — field deletion, type corruption, truncation, and
  a randomized key-deletion sweep against the v1/v2 loader;
* **Binary snapshots** — truncation at every structural boundary,
  deterministic single-bit flips over the whole file, and targeted
  header corruption (magic, version, section count, section names)
  against the v3 loader.  The CRC-32 section checksums mean every
  payload flip must surface as a clean
  :class:`~repro.exceptions.SerializationError`, never as garbage
  labels or an uncaught ``struct.error``.
"""

from __future__ import annotations

import json
import random
import struct

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import (
    load_ct_index,
    load_ct_index_binary,
    save_ct_index,
    save_ct_index_binary,
)
from repro.exceptions import SerializationError
from repro.graphs.generators.random_graphs import gnp_graph
from repro.storage.binary import _HEADER, _SECTION, _SECTION_NAMES, MAGIC


@pytest.fixture(scope="module")
def built_index():
    return CTIndex.build(gnp_graph(20, 0.2, seed=1), 3)


@pytest.fixture(scope="module")
def saved_document(tmp_path_factory, built_index):
    path = tmp_path_factory.mktemp("fuzz") / "index.json"
    save_ct_index(built_index, path)
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def snapshot_bytes(tmp_path_factory, built_index):
    path = tmp_path_factory.mktemp("fuzz-bin") / "index.ctsnap"
    save_ct_index_binary(built_index, path)
    return path.read_bytes()


def write_and_load(tmp_path, document):
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(document))
    return load_ct_index(path)


class TestFieldDeletion:
    @pytest.mark.parametrize(
        "field", ["graph", "reduction", "elimination", "tree_labels", "core", "bandwidth"]
    )
    def test_missing_top_level_field(self, tmp_path, saved_document, field):
        document = dict(saved_document)
        del document[field]
        with pytest.raises(SerializationError):
            write_and_load(tmp_path, document)

    def test_missing_nested_field(self, tmp_path, saved_document):
        document = json.loads(json.dumps(saved_document))
        del document["core"]["order"]
        with pytest.raises(SerializationError):
            write_and_load(tmp_path, document)


class TestTypeCorruption:
    def test_string_bandwidth(self, tmp_path, saved_document):
        document = dict(saved_document)
        document["bandwidth"] = "twenty"
        with pytest.raises(SerializationError):
            write_and_load(tmp_path, document)

    def test_graph_edges_scrambled(self, tmp_path, saved_document):
        document = json.loads(json.dumps(saved_document))
        document["graph"]["edges"] = [["a", "b", 1]]
        with pytest.raises(SerializationError):
            write_and_load(tmp_path, document)

    def test_truncated_json(self, tmp_path, saved_document):
        path = tmp_path / "trunc.json"
        text = json.dumps(saved_document)
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SerializationError):
            load_ct_index(path)


class TestRandomDeletionFuzz:
    def test_random_key_deletions_never_crash_uncleanly(self, tmp_path, saved_document):
        rng = random.Random(7)
        for trial in range(25):
            document = json.loads(json.dumps(saved_document))
            # Delete a random key at a random depth.
            node = document
            for _ in range(rng.randint(1, 3)):
                keys = [k for k in node if isinstance(node, dict)] if isinstance(node, dict) else []
                if not keys:
                    break
                key = rng.choice(keys)
                if rng.random() < 0.5 or not isinstance(node[key], dict):
                    del node[key]
                    break
                node = node[key]
            path = tmp_path / f"fuzz{trial}.json"
            path.write_text(json.dumps(document))
            try:
                index = load_ct_index(path)
            except SerializationError:
                continue  # clean failure is the expected outcome
            # If it still loads, it must still answer queries sanely.
            index.distance(0, index.graph.n - 1)


# ----------------------------------------------------------------------
# Binary snapshot fuzzing
# ----------------------------------------------------------------------


def _load_bytes(tmp_path, data: bytes):
    path = tmp_path / "candidate.ctsnap"
    path.write_bytes(data)
    return load_ct_index_binary(path)


class TestBinaryTruncation:
    def test_truncation_at_every_boundary(self, tmp_path, snapshot_bytes):
        table_end = _HEADER.size + _SECTION.size * len(_SECTION_NAMES)
        payload_len = len(snapshot_bytes) - table_end
        cuts = {0, 1, 4, _HEADER.size - 1, _HEADER.size}
        cuts.update(_HEADER.size + _SECTION.size * i for i in range(len(_SECTION_NAMES)))
        cuts.update(table_end + (payload_len * i) // 16 for i in range(16))
        cuts.add(len(snapshot_bytes) - 1)
        for cut in sorted(cuts):
            with pytest.raises(SerializationError):
                _load_bytes(tmp_path, snapshot_bytes[:cut])

    def test_truncated_snapshot_fails_cleanly_via_autodetect(
        self, tmp_path, snapshot_bytes
    ):
        # load_ct_index routes magic-prefixed files to the binary loader;
        # a truncated snapshot must not fall through to the JSON parser.
        path = tmp_path / "trunc.ctsnap"
        path.write_bytes(snapshot_bytes[: len(snapshot_bytes) // 2])
        with pytest.raises(SerializationError):
            load_ct_index(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(SerializationError, match="too short"):
            _load_bytes(tmp_path, b"")


class TestBinaryBitFlips:
    def test_single_bit_flips_fail_cleanly(self, tmp_path, snapshot_bytes, built_index):
        """Flip one bit at 120 deterministic positions across the file.

        Every flip must either raise SerializationError (the expected
        outcome: CRC mismatch, bad magic, bounds violation, ...) or — in
        the astronomically unlikely event a flip survives the checksums —
        still load into an index that answers like the original.
        """
        rng = random.Random(20260806)
        positions = sorted(
            rng.randrange(len(snapshot_bytes)) for _ in range(120)
        )
        survivors = 0
        for pos in positions:
            corrupted = bytearray(snapshot_bytes)
            corrupted[pos] ^= 1 << rng.randrange(8)
            try:
                index = _load_bytes(tmp_path, bytes(corrupted))
            except SerializationError:
                continue
            survivors += 1
            n = index.graph.n
            assert index.distance(0, n - 1) == built_index.distance(0, n - 1)
        # CRC-32 over every section means essentially no flip loads.
        assert survivors == 0

    def test_payload_flip_reports_checksum(self, tmp_path, snapshot_bytes):
        table_end = _HEADER.size + _SECTION.size * len(_SECTION_NAMES)
        corrupted = bytearray(snapshot_bytes)
        corrupted[table_end + 5] ^= 0x40
        with pytest.raises(SerializationError, match="checksum mismatch"):
            _load_bytes(tmp_path, bytes(corrupted))


class TestBinaryHeaderCorruption:
    def test_bad_magic(self, tmp_path, snapshot_bytes):
        corrupted = b"NOTANIDX" + snapshot_bytes[len(MAGIC) :]
        with pytest.raises(SerializationError, match="bad magic"):
            _load_bytes(tmp_path, corrupted)

    def test_bad_magic_via_autodetect_is_not_json(self, tmp_path, snapshot_bytes):
        # Without the magic the generic loader tries JSON; raw binary
        # must still fail with SerializationError, not UnicodeDecodeError.
        path = tmp_path / "notmagic.ctsnap"
        path.write_bytes(b"NOTANIDX" + snapshot_bytes[len(MAGIC) :])
        with pytest.raises(SerializationError):
            load_ct_index(path)

    @pytest.mark.parametrize("version", [0, 1, 2, 6, 99, 2**32 - 1])
    def test_unsupported_header_version(self, tmp_path, snapshot_bytes, version):
        corrupted = bytearray(snapshot_bytes)
        corrupted[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", version)
        with pytest.raises(SerializationError, match=f"version {version}"):
            _load_bytes(tmp_path, bytes(corrupted))

    def test_version_3_header_on_v4_payload_mismatches_meta(
        self, tmp_path, snapshot_bytes
    ):
        # 3 is an accepted header version, but the meta section of a
        # current snapshot pins its own version — rewriting only the
        # header must not load.
        corrupted = bytearray(snapshot_bytes)
        corrupted[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", 3)
        with pytest.raises(SerializationError, match="meta section claims"):
            _load_bytes(tmp_path, bytes(corrupted))

    def test_huge_section_count(self, tmp_path, snapshot_bytes):
        corrupted = bytearray(snapshot_bytes)
        corrupted[_HEADER.size - 4 : _HEADER.size] = struct.pack("<I", 50_000)
        with pytest.raises(SerializationError, match="section table"):
            _load_bytes(tmp_path, bytes(corrupted))

    def test_renamed_section_reported_missing(self, tmp_path, snapshot_bytes):
        # Smash the first section's name (not covered by its payload CRC):
        # the loader must report the section as missing, not decode junk.
        corrupted = bytearray(snapshot_bytes)
        corrupted[_HEADER.size : _HEADER.size + 4] = b"XXXX"
        with pytest.raises(SerializationError, match="missing snapshot sections"):
            _load_bytes(tmp_path, bytes(corrupted))

    def test_random_garbage_behind_magic(self, tmp_path):
        rng = random.Random(11)
        for trial in range(10):
            garbage = MAGIC + bytes(
                rng.randrange(256) for _ in range(rng.randrange(4, 4096))
            )
            with pytest.raises(SerializationError):
                _load_bytes(tmp_path, garbage)


class TestCraftedSectionTables:
    """Adversarial tables: structurally valid entries, dishonest layout.

    Every entry individually passes the bounds check, so these shapes
    reach the table-consistency validation — a crafted table could
    otherwise alias one payload under two names or smuggle a second
    copy of a section past the reader.
    """

    @staticmethod
    def _entry(data: bytes, i: int):
        return _SECTION.unpack_from(data, _HEADER.size + _SECTION.size * i)

    @staticmethod
    def _patch_entry(data: bytearray, i: int, name, offset, length, crc) -> None:
        _SECTION.pack_into(
            data, _HEADER.size + _SECTION.size * i, name, offset, length, crc
        )

    def test_duplicate_section_name_rejected(self, tmp_path, snapshot_bytes):
        corrupted = bytearray(snapshot_bytes)
        name0 = self._entry(corrupted, 0)[0]
        _, offset, length, crc = self._entry(corrupted, 1)
        self._patch_entry(corrupted, 1, name0, offset, length, crc)
        with pytest.raises(SerializationError, match="repeats section"):
            _load_bytes(tmp_path, bytes(corrupted))

    def test_overlapping_sections_rejected(self, tmp_path, snapshot_bytes):
        # Point section 1 into section 0's byte range (same name, own
        # length): each entry is in bounds, but the ranges collide.
        corrupted = bytearray(snapshot_bytes)
        _, offset0, _, _ = self._entry(corrupted, 0)
        name1, _, length1, crc1 = self._entry(corrupted, 1)
        self._patch_entry(corrupted, 1, name1, offset0, length1, crc1)
        with pytest.raises(SerializationError, match="overlap"):
            _load_bytes(tmp_path, bytes(corrupted))

    def test_identical_aliased_entries_rejected(self, tmp_path, snapshot_bytes):
        # Entry 1 becomes a byte-for-byte copy of entry 0: duplicate
        # name AND full range overlap (the CRC would even verify) —
        # the duplicate-name check must fire before any payload reads.
        corrupted = bytearray(snapshot_bytes)
        self._patch_entry(corrupted, 1, *self._entry(corrupted, 0))
        with pytest.raises(SerializationError, match="repeats section"):
            _load_bytes(tmp_path, bytes(corrupted))

    @pytest.mark.parametrize("use_mmap", [False, True])
    def test_rejection_shared_by_mapped_loads(
        self, tmp_path, snapshot_bytes, use_mmap
    ):
        # The table validation runs in _read_sections, shared by the
        # copying and mmap paths; both must refuse a crafted table.
        corrupted = bytearray(snapshot_bytes)
        _, offset0, _, _ = self._entry(corrupted, 0)
        name1, _, length1, crc1 = self._entry(corrupted, 1)
        self._patch_entry(corrupted, 1, name1, offset0 + 1, length1, crc1)
        path = tmp_path / "crafted.ctsnap"
        path.write_bytes(bytes(corrupted))
        with pytest.raises(SerializationError, match="overlap"):
            load_ct_index_binary(path, mmap=use_mmap)
