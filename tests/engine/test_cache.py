"""Content-addressed cache: canonical keys, LRU, disk layer, wiring."""

import os
import textwrap
from collections import namedtuple
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine import (
    ResultCache,
    Uncacheable,
    cache_disabled,
    cache_override,
    cached,
    canonical_key,
    configure_cache,
    get_cache,
    seal_payload,
    unseal_payload,
    unseal_payload_env,
)
from repro.engine.environment import environment_fingerprint
from repro.pepa.parser import parse_model

MODEL_SRC = """
r = 1.0;
s = 2.0;
P = (a, r).Q;
Q = (b, s).P;
P
"""


class TestCanonicalKey:
    def test_structurally_equal_models_share_a_key(self):
        a = parse_model(MODEL_SRC)
        b = parse_model(MODEL_SRC)
        assert a is not b
        assert canonical_key("t", a) == canonical_key("t", b)

    def test_changed_rate_changes_key(self):
        model = parse_model(MODEL_SRC)
        assert canonical_key("t", model) != canonical_key(
            "t", model.with_rate("r", 3.0)
        )

    def test_dict_insertion_order_is_irrelevant(self):
        assert canonical_key("t", {"a": 1, "b": 2}) == canonical_key(
            "t", {"b": 2, "a": 1}
        )

    def test_set_iteration_order_is_irrelevant(self):
        assert canonical_key("t", frozenset(["x", "y", "z"])) == canonical_key(
            "t", frozenset(["z", "x", "y"])
        )

    def test_ndarray_content_and_dtype_matter(self):
        a = np.array([1.0, 2.0])
        assert canonical_key("t", a) == canonical_key("t", a.copy())
        assert canonical_key("t", a) != canonical_key("t", np.array([1.0, 2.5]))
        assert canonical_key("t", a) != canonical_key("t", a.astype(np.float32))

    def test_sparse_matrix_by_content(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert canonical_key("t", m) == canonical_key("t", m.tocoo())
        other = sp.csr_matrix(np.array([[0.0, 1.0], [2.5, 0.0]]))
        assert canonical_key("t", m) != canonical_key("t", other)

    def test_namespace_separates_keys(self):
        assert canonical_key("a", 1) != canonical_key("b", 1)

    def test_unhashable_type_raises(self):
        with pytest.raises(Uncacheable):
            canonical_key("t", object())

    def test_scalar_type_tags_distinguish(self):
        assert canonical_key("t", 1) != canonical_key("t", 1.0)
        assert canonical_key("t", True) != canonical_key("t", 1)


    def test_equal_object_arrays_are_uncacheable(self):
        # The raw bytes of an object array are element addresses: two
        # equal arrays used to get different keys, and a reused address
        # could give a false hit.
        a = np.array([float("1.5"), None], dtype=object)
        b = np.array([float("1.5"), None], dtype=object)
        for value in (a, b, (1.5, b), np.array([(1, None)], dtype="i8,O")):
            with pytest.raises(Uncacheable):
                canonical_key("t", value)

    def test_string_beside_unencodable_value_raises(self):
        with pytest.raises(Uncacheable):
            canonical_key("t", ("send", object()))


# ---------------------------------------------------------------------------
# The frame encoding is a persisted format: every stored manifest holds
# digests made of it.  These keys were computed by the original
# recursive encoder; a faster encoder must reproduce each of them.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Leaf:
    name: str
    weight: float
    note: str = field(default="", compare=False)


@dataclass(frozen=True)
class _Node:
    leaf: _Leaf
    children: tuple = ()


class _Colour(IntEnum):
    RED = 1
    BLUE = 7


class _Tag(str):
    pass


class _Array(np.ndarray):
    pass


_Pair = namedtuple("_Pair", "action rate")


def _unsorted_csr():
    m = sp.csr_matrix(
        (np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1]), np.array([0, 2, 3])),
        shape=(2, 3),
    )
    assert not m.has_sorted_indices
    return m


PINNED_VALUES = {
    "none": lambda: None,
    "true": lambda: True,
    "false": lambda: False,
    "small_int": lambda: 7,
    "negative_int": lambda: -42,
    "huge_int": lambda: 2**200 + 1,
    "negative_zero": lambda: -0.0,
    "nan": lambda: float("nan"),
    "non_ascii_str": lambda: "Zustand κ → ✓",
    "bytes": lambda: b"\x00\xffab",
    "np_int64": lambda: np.int64(5),
    "np_float32": lambda: np.float32(1.5),
    "np_bool": lambda: np.bool_(True),
    "np_float64": lambda: np.float64(0.1),
    "non_contiguous_array": lambda: np.arange(12.0).reshape(3, 4)[:, ::2],
    "fortran_array": lambda: np.asfortranarray(np.arange(6, dtype=np.int32).reshape(2, 3)),
    "zero_d_array": lambda: np.array(2.5),
    "unsorted_csr": _unsorted_csr,
    "coo": lambda: sp.coo_matrix(([1.0, 2.0], ([0, 1], [1, 0])), shape=(2, 2)),
    "empty_tuple": lambda: (),
    "mixed_tuple": lambda: ("send", "think", "send", 1, "send", None, ["think", 2.5]),
    "set": lambda: {1, "a", 2.5},
    "dict_mixed_keys": lambda: {1: "a", "b": 2.0, (1, 2): None},
    "dataclass_compare_false": lambda: _Leaf("x", 1.5, note="not hashed"),
    "nested_dataclass": lambda: _Node(_Leaf("x", 1.5), (_Leaf("y", 2.0),)),
    "str_subclass": lambda: _Tag("send"),
    "int_enum": lambda: (_Colour.RED, _Colour.BLUE),
    "namedtuple": lambda: _Pair("send", 2),
    "ndarray_subclass": lambda: np.arange(4.0).reshape(2, 2)[:, ::-1].view(_Array),
}

PINNED_KEYS = {
    "bytes": "6715979542136b9ece0e507035b08af2657d224f6fecf8b15735e07ce40a570e",
    "coo": "94cf68902d806506eb019c883cab3f01bb82dfa48524c3f0d4c40e9794d4e12a",
    "dataclass_compare_false": "b8f1d52e5ec595a6fe65ea70eaa13c0f56d68dce6f2bc991adb27ea4f3d91957",
    "dict_mixed_keys": "8122d008d47a77ba2781a9f065bb5d4ea9cdbd1de3614e1f648f6659a2b899ce",
    "empty_tuple": "de2b68254016e434aa6742dec8505ecfdefee280006a66b22f5d08e5af3341fe",
    "false": "8e9fbbba08ac10f29b57ffe3dff4cae5d7a166e84d07e19f2c819b59a501f92e",
    "fortran_array": "9087353f2ccbe0f471a4a8b117db911408dd94e99d0c9854d17b5688e21aec0b",
    "huge_int": "5c7a175c25624352c39ae7ad1de9cea8758f25f613b5835a6ae5770eee4a1ea1",
    "int_enum": "05ccd3949ae5f95eecdecf8032d8b53494506aaaea536a04d1845fb02f0325e2",
    "namedtuple": "d6dfcc7c89c1bea4bbce8a196a30ba1dd31b34a43d24ccda5f2b81070e5bb1bd",
    "ndarray_subclass": "29e117817a86fac7dc4a764a16c11d349fc8a09e786609f571d5235c5f1ad5a8",
    "mixed_tuple": "687dcd8b162c4d83357eed4d3141740b2e02e57d4de38f6b2b93e63b42a9b73a",
    "nan": "34a45891db16d735a524c6e77c8bd35941d20492623fc5af5e3ad76f88778ff7",
    "negative_int": "4706e06908bd2b49263c0acfe93e9120e9e066e9e5f4968d9e9bb57325561bc2",
    "negative_zero": "18e527978633fc717ddc46cc122e881ebc8a8140f0593bbd517f1124246a1e14",
    "nested_dataclass": "339795d5036a09f9cd3ceaccd39322a2bb4a054b85dbdcd6ebfb4097e800ff65",
    "non_ascii_str": "71e06f8cd26156d6ebfa1d165148693717f4d254e6a037003d44ab9574b12421",
    "non_contiguous_array": "9647a7da14dabfb839cd2768be66034473849f3a1d5c5fa812a4568d9ae49ab4",
    "none": "d8c9bee8a461d113df9af45a9b4b25894d17612b72344092e11694949de76a30",
    "np_bool": "fabd5019fa7a323ec2d0e25626ce2e5503e83b47648f95fb64a2a9da6622e9c9",
    "np_float32": "56b557a5406bc626e00dae3e662b6cf979f98712205e18367fdb3d970b6e17d4",
    "np_float64": "64a31caa1c03c2e9f41d6128720061e43d4510c90d85262b00b1113d9e3ea052",
    "np_int64": "c1cd757f9deb7a9aa4b78f49fcc678907ed83c3b88481a92e1ae3d36fda3c6cd",
    "set": "8a898aae239725684aeee2e710a5f70696821f255f903440169e33c40527a5b5",
    "small_int": "a1978a8cbc48284772d936e06eac0b5bf4baa1fd87a02bd58e2d51bbdcf92953",
    "str_subclass": "0f51f4a2a1a982cc9fe24649e61adf9e29676a31248641c49b48bf6f2f0745ab",
    "true": "fabd5019fa7a323ec2d0e25626ce2e5503e83b47648f95fb64a2a9da6622e9c9",
    "unsorted_csr": "1a9ed8256c26571dcfdcdfddc18d101aeb8892485efc15900ffdd05ad8af7946",
    "zero_d_array": "75468f1dcd95673b0dbbc2d8c5cc7dad033437be1a5fbddbf0759999adb4f573",
}


@pytest.mark.parametrize("name", sorted(PINNED_VALUES))
def test_value_encoding_is_pinned(name):
    assert canonical_key("pin", PINNED_VALUES[name]()) == "pin-" + PINNED_KEYS[name]


def test_compare_false_field_is_not_hashed():
    assert canonical_key("pin", _Leaf("x", 1.5)) == canonical_key(
        "pin", _Leaf("x", 1.5, note="other")
    )


HIDING_MODEL = """
r = 1.0;
s = 2.0;
P = (a, r).(b, s).P;
Q = (a, r).Q + (c, s).(d, r).Q;
(P <a> Q) / {b}
"""


def _pinned_models():
    from benchmarks.e2e.workloads import LAN_PATTERNS, lan_source
    from repro.pepa.models import MODEL_NAMES, get_source

    models = {name: get_source(name) for name in MODEL_NAMES}
    for segments in LAN_PATTERNS:
        mus = [3.0 + k for k in range(len(segments))]
        models["lan" + "_".join(map(str, segments))] = lan_source(segments, 0.4, mus)
    models["hiding_anonymous"] = HIDING_MODEL
    return models


PINNED_IR_DIGESTS = {
    "active_badge": "3ac7929e2f42bcf28843ea662edc9ceea81420aa2f67a2ea778b4395ca8ef203",
    "alternating_bit": "6ae0279bf7af38bc9d0a37d658849ddf69a0a031e91974780af916fa642adb87",
    "faulty_machine": "4e84c9e2a24dbc3f4a09f08898e0fc70fa1ce5c809009cb9df149322d8ad89c1",
    "hiding_anonymous": "37fcd354eb0f85ced17260df9ebf3c9839efc6974eec0fa714e137878397cbf4",
    "lan10": "b4b89c5123b61bde474cb1c9840f260cff514d87ebdc947bd329f5fdea944e14",
    "lan4_6": "b5bc302bc63711cbc9ef36093fed23028f9eadc324c9ba1161188513fb3062b2",
    "lan5_5": "92e73df06b5567d8678ab92032697adc6ea1c595211d2feb4bf4b20c27a18265",
    "mm2_queue": "14779be3226a592d24be8373b0f8ec2957e93d2feafc2d5c1627c89dd0d34dc6",
    "pc_lan_4": "0ccecf2da388dba9863a2b06388c4b17658aa1a3d0152e20f2fed9d126b1f8a2",
    "simple_validation": "db30e21e7cae3e6d389a8a6672b8f63dc535ab34af8d5abf159178775912504c",
}


@pytest.mark.parametrize("name", sorted(PINNED_IR_DIGESTS))
def test_ir_digest_is_pinned(name):
    from repro.manifest import lower_for_capability

    ir, _labels = lower_for_capability("pepa", _pinned_models()[name], "steady")
    assert canonical_key("ir", ir) == "ir-" + PINNED_IR_DIGESTS[name]


def test_every_pinned_model_is_checked():
    assert set(_pinned_models()) == set(PINNED_IR_DIGESTS)


def test_threads_share_the_dataclass_layout_table():
    # Runner threads hash concurrently; the first encounter of a type
    # fills its layout entry, which every thread must read the same.
    import dataclasses
    import sys
    import threading

    types = [
        dataclasses.make_dataclass(f"Fresh{i}", [("a", int), ("b", tuple)])
        for i in range(40)
    ]
    values = [t(i, ("x", 2.5, t(-i, ()))) for i, t in enumerate(types)]
    keys: list[list[str]] = []
    lock = threading.Lock()

    def worker():
        mine = [canonical_key("t", v) for v in values]
        with lock:
            keys.append(mine)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(keys) == 8
    assert all(k == keys[0] for k in keys)
    assert len(set(keys[0])) == len(values)


class TestResultCache:
    def test_roundtrip_returns_fresh_copy(self):
        cache = ResultCache(max_entries=4)
        value = np.arange(5.0)
        cache.put("k", value)
        out = cache.get("k")
        np.testing.assert_array_equal(out, value)
        assert out is not value  # unpickled copy, safe to mutate

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        miss = cache.get("b")
        assert not isinstance(miss, int)  # evicted: miss sentinel

    def test_disk_layer_survives_memory_clear(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        cache.put("k", {"pi": np.ones(3)})
        cache.clear()  # memory only
        assert len(cache) == 0
        out = cache.get("k")
        np.testing.assert_array_equal(out["pi"], np.ones(3))

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestDiskIntegrity:
    def test_disk_entries_carry_the_integrity_trailer(self, tmp_path):
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        cache.put("sealed", [1, 2, 3])
        blob = (tmp_path / "sealed.pkl").read_bytes()
        assert blob.endswith(b"RPRO2")
        payload = unseal_payload(blob)
        assert payload is not None
        assert seal_payload(payload) == blob

    def test_trailer_seals_the_environment_fingerprint(self):
        blob = seal_payload(b"payload-bytes")
        unsealed = unseal_payload_env(blob)
        assert unsealed is not None
        payload, env = unsealed
        assert payload == b"payload-bytes"
        assert env == environment_fingerprint()

    def test_tampered_env_is_detected(self):
        blob = seal_payload(b"payload", env=b'{"numpy": "9.9.9"}')
        # Flip one byte inside the sealed env segment.
        pos = blob.index(b"9.9.9")
        broken = blob[:pos] + b"8" + blob[pos + 1 :]
        assert unseal_payload_env(broken) is None

    def test_entry_from_other_environment_is_quarantined(self, tmp_path):
        from repro.engine.metrics import get_registry

        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        cache.put("k", 42)
        cache.clear()  # memory only; disk entry remains
        # Rewrite the entry as if produced under a different numpy —
        # intact payload, intact seal, foreign fingerprint.
        path = tmp_path / "k.pkl"
        payload = unseal_payload(path.read_bytes())
        path.write_bytes(seal_payload(payload, env=b'{"numpy": "0.0.0"}'))
        before = get_registry().counter("cache.env_mismatch")
        miss = cache.get("k")
        assert not isinstance(miss, int)  # treated as a miss, not served
        assert get_registry().counter("cache.env_mismatch") == before + 1
        assert list(tmp_path.glob("*.envmismatch"))  # quarantined for inspection
        assert not (tmp_path / "k.pkl").exists()

    def test_legacy_rpro1_entry_is_quarantined_and_recomputed(self, tmp_path):
        import hashlib
        import pickle

        from repro.engine.metrics import get_registry

        # A pre-fingerprint entry: payload, sha256(payload), b"RPRO1".
        payload = pickle.dumps(41)
        key = canonical_key("legacy", 1)
        (tmp_path / f"{key}.pkl").write_bytes(
            payload + hashlib.sha256(payload).digest() + b"RPRO1"
        )
        configure_cache(disk_dir=tmp_path)
        try:
            before = get_registry().counter("cache.corrupt_entries")
            assert cached("legacy", (1,), lambda: 42) == (42, "miss")
            assert get_registry().counter("cache.corrupt_entries") == before + 1
            assert list(tmp_path.glob(f"{key}.pkl.*.corrupt"))
            assert cached("legacy", (1,), lambda: 0) == (42, "hit")
        finally:
            configure_cache(disk_dir=None)

    def test_no_tmp_files_left_behind(self, tmp_path):
        # Writes go through per-process/per-call unique tmp names and an
        # atomic replace; repeated puts of the same key must leave exactly
        # one entry and no stray tmp files.
        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        for value in range(5):
            cache.put("rewritten", value)
        assert [p.name for p in tmp_path.iterdir()] == ["rewritten.pkl"]

    def test_concurrent_writers_use_distinct_tmp_names(self, tmp_path):
        # Two cache instances standing in for two processes: the tmp
        # name embeds pid + a counter, so they can never collide on the
        # same half-written file even for the same key.
        a = ResultCache(max_entries=4, disk_dir=tmp_path)
        b = ResultCache(max_entries=4, disk_dir=tmp_path)
        a.put("shared", "from-a")
        b.put("shared", "from-b")
        assert b.get("shared") == "from-b"
        assert not list(tmp_path.glob("*.tmp"))


class TestCachedHelper:
    def test_miss_then_hit(self):
        calls = []

        def compute():
            calls.append(1)
            return 41 + len(calls)

        parts = (parse_model(MODEL_SRC), "unit-test-miss-then-hit")
        value1, status1 = cached("unittest", parts, compute)
        value2, status2 = cached("unittest", parts, compute)
        assert (status1, status2) == ("miss", "hit")
        assert value1 == value2 == 42
        assert len(calls) == 1  # second call served from cache

    def test_disabled_cache_always_computes(self):
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        with cache_disabled():
            v1, s1 = cached("unittest", ("disabled-case",), compute)
            v2, s2 = cached("unittest", ("disabled-case",), compute)
        assert (s1, s2) == ("off", "off")
        assert (v1, v2) == (1, 2)

    def test_uncacheable_parts_still_compute(self):
        value, status = cached("unittest", (object(),), lambda: 7)
        assert value == 7
        assert status == "uncacheable"

    def test_override_restores_state(self):
        cache = get_cache()
        before = cache.enabled
        with cache_override(not before):
            assert cache.enabled is not before
        assert cache.enabled is before

    def test_configure_validates(self):
        with pytest.raises(ValueError):
            configure_cache(max_entries=0)

    def test_configure_disk_dir_none_disables(self, tmp_path):
        cache = get_cache()
        before = cache.disk_dir
        try:
            configure_cache(disk_dir=tmp_path)
            assert cache.disk_dir == tmp_path
            configure_cache()  # omitting the argument keeps the setting
            assert cache.disk_dir == tmp_path
            configure_cache(disk_dir=None)  # None is an explicit reset
            assert cache.disk_dir is None
        finally:
            configure_cache(disk_dir=before)


class TestUnusableDiskLayer:
    """Disk writes are best-effort for results and checkpoints alike: a
    disk layer rooted under a regular file must not fail the work."""

    @pytest.fixture
    def broken_root(self, tmp_path):
        (tmp_path / "file").write_text("not a directory")
        configure_cache(disk_dir=tmp_path / "file" / "cache")
        try:
            yield
        finally:
            configure_cache(disk_dir=None)

    def test_cached_result_survives(self, broken_root):
        assert cached("probe", (1, 2), lambda: 3) == (3, "miss")
        assert cached("probe", (1, 2), lambda: 4) == (3, "hit")  # memory layer

    def test_checkpointed_batch_survives(self, broken_root):
        from repro.engine import run_tasks

        assert run_tasks(_square, [1, 2, 3], checkpoint=("batch",)) == [1, 4, 9]
        assert get_cache().purge_chunks(ttl_seconds=0.0) == 0


def _square(x):
    return x * x


class TestConcurrentDiskWriters:
    """Two processes hammering the same content key must never leave a
    torn entry: every write goes through a unique temp name plus an
    atomic rename, and every read re-verifies the RPRO2 seal."""

    WRITER = textwrap.dedent("""
        import sys
        from repro.engine import ResultCache

        disk_dir, tag = sys.argv[1], sys.argv[2]
        cache = ResultCache(max_entries=4, disk_dir=disk_dir)
        payload = {"tag": tag, "blob": list(range(1000))}
        for i in range(200):
            cache.put("race-key", payload)
        print("done", flush=True)
    """)

    def test_two_process_write_race_never_tears_a_read(self, tmp_path):
        import subprocess
        import sys

        disk_dir = tmp_path / "cache"
        disk_dir.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", self.WRITER, str(disk_dir), tag],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for tag in ("a", "b")
        ]
        good_reads = 0
        while any(w.poll() is None for w in writers):
            # A fresh cache per read, or the memory layer would mask the
            # disk round-trip after the first hit.
            value = ResultCache(max_entries=4, disk_dir=disk_dir).get("race-key")
            if isinstance(value, dict):  # a non-dict is the miss sentinel
                assert value["tag"] in ("a", "b")
                assert value["blob"] == list(range(1000))
                good_reads += 1
        for writer in writers:
            out, err = writer.communicate(timeout=30)
            assert writer.returncode == 0, err.decode()
            assert out.strip() == b"done"

        assert good_reads > 0, "the race window never produced a readable entry"
        # No quarantined torn writes, no leaked temp files, and the final
        # entry unseals cleanly.
        assert not list(disk_dir.glob("*.corrupt"))
        assert not list(disk_dir.glob("*.tmp"))
        blob = (disk_dir / "race-key.pkl").read_bytes()
        assert unseal_payload(blob) is not None
        final = ResultCache(max_entries=4, disk_dir=disk_dir).get("race-key")
        assert final["blob"] == list(range(1000))


class TestCacheSizeEnvironment:
    @pytest.mark.parametrize(
        "raw, message",
        [("abc", "malformed REPRO_CACHE_SIZE"),
         ("0", "must be at least 1"),
         ("-3", "must be at least 1")],
    )
    def test_bad_size_warns_and_solve_still_runs(self, raw, message):
        # The cache is built at import, so only a fresh interpreter
        # sees the variable; a bad value used to kill every command.
        import subprocess
        import sys

        env = dict(os.environ, REPRO_CACHE_SIZE=raw)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.engine import get_cache; "
             "from repro.cli import main; "
             "print(get_cache().max_entries); "
             "raise SystemExit(main(['solve', '--list-backends']))"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr
        assert proc.stdout.splitlines()[0] == "256"
