"""Content-addressed cache: canonical keys, LRU, disk layer, wiring."""

import os
import textwrap

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

    def test_legacy_trailer_still_verifies_with_unknown_env(self):
        import hashlib

        payload = b"old-entry"
        legacy = payload + hashlib.sha256(payload).digest() + b"RPRO1"
        assert unseal_payload(legacy) == payload
        assert unseal_payload_env(legacy) == (payload, None)

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

    def test_legacy_entry_with_unknown_env_is_quarantined(self, tmp_path):
        import hashlib
        import pickle

        cache = ResultCache(max_entries=4, disk_dir=tmp_path)
        payload = pickle.dumps(42)
        legacy = payload + hashlib.sha256(payload).digest() + b"RPRO1"
        (tmp_path / "old.pkl").write_bytes(legacy)
        miss = cache.get("old")
        assert not isinstance(miss, int)
        assert list(tmp_path.glob("*.envmismatch"))

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
