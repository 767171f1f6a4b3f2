"""Content-addressed result cache: hits, invalidation, recovery.

The cache key is (fingerprint = package digest + scenario body hash,
canonical params, schema) — these tests pin down each invalidation axis,
the package digest itself, concurrent same-key stores, and the
corrupted-entry recovery path (a bad entry must become a miss, never an
exception).
"""

import json
import os
import shutil

import pytest

from repro.checks import depfp
from repro.checks.lint import package_root
from repro.scenarios import ScenarioResult
from repro.scenarios.registry import Scenario
from repro.sweep import ResultCache, cache_key, canonical_params


# Module-level so inspect.getsource works: two versions of "the same"
# scenario body, as if the function had been edited between runs.
def _body_v1(n):
    return ScenarioResult(name="edited", headers=["n"], rows=[[n]])


def _body_v2(n):
    return ScenarioResult(name="edited", headers=["n"], rows=[[n * 2]])


def _scenario(fn=_body_v1, name="cached"):
    return Scenario(name=name, fn=fn, title=name, params={"n": 3})


def _result(rows):
    return ScenarioResult(name="cached", title="Cached", headers=["n"], rows=rows)


def test_miss_then_store_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _scenario()
    params = {"n": 3}

    assert cache.load(entry, params) is None
    cache.store(entry, params, _result([[3]]), host_seconds=1.25)
    found = cache.load(entry, params)
    assert found is not None
    result, cold_seconds = found
    assert result == _result([[3]])
    assert cold_seconds == 1.25
    stats = cache.telemetry.as_dict()
    assert stats == {"hits": 1, "misses": 1, "stores": 1, "invalidated": 0}


def test_params_change_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _scenario()
    cache.store(entry, {"n": 3}, _result([[3]]), host_seconds=0.1)
    assert cache.load(entry, {"n": 4}) is None
    assert cache.load(entry, {"n": 3}) is not None
    assert cache_key(entry, {"n": 3}) != cache_key(entry, {"n": 4})


def test_source_edit_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    before = _scenario(_body_v1)
    after = _scenario(_body_v2)
    assert before.source_fingerprint() != after.source_fingerprint()
    cache.store(before, {"n": 3}, _result([[3]]), host_seconds=0.1)
    assert cache.load(after, {"n": 3}) is None
    # The stale entry for the old source is untouched (GC is `clear()`).
    assert cache.load(before, {"n": 3}) is not None


def test_corrupted_entry_recovers_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _scenario()
    params = {"n": 3}
    path = cache.store(entry, params, _result([[3]]), host_seconds=0.1)

    path.write_text("{ not json", encoding="utf-8")
    assert cache.load(entry, params) is None
    assert not path.exists()  # dropped so the next run regenerates
    assert cache.telemetry.invalidated == 1

    # The cache still works after recovery.
    cache.store(entry, params, _result([[3]]), host_seconds=0.1)
    assert cache.load(entry, params) is not None


def test_stale_schema_is_invalidated(tmp_path):
    cache = ResultCache(tmp_path)
    entry = _scenario()
    params = {"n": 3}
    path = cache.store(entry, params, _result([[3]]), host_seconds=0.1)

    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["schema"] = 999
    path.write_text(json.dumps(envelope), encoding="utf-8")
    assert cache.load(entry, params) is None
    assert cache.telemetry.invalidated == 1


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    cache.store(_scenario(name="other"), {"n": 3}, _result([[3]]), host_seconds=0.1)
    assert cache.clear() == 2
    assert cache.load(_scenario(), {"n": 3}) is None


def test_canonical_params_is_order_independent():
    assert canonical_params({"b": 2, "a": (1, 2)}) == canonical_params(
        {"a": [1, 2], "b": 2}
    )


def test_entry_path_is_human_navigable(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.entry_path(_scenario(), {"n": 3})
    assert path.name.startswith("cached-")
    assert path.suffix == ".json"


# -- package-digest keying ---------------------------------------------------
#
# Every key carries the package digest: one SHA-256 over all of src/repro,
# so any source edit (helper, scenario, orchestration) invalidates everything.

def _registered(name="table01_resources32"):
    import repro.scenarios  # registration side effects
    from repro.scenarios import get_scenario

    return get_scenario(name)


def _package_copy(tmp_path):
    return shutil.copytree(
        package_root(), tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )


def test_package_digest_hashes_the_imported_package():
    assert depfp.package_graph() == depfp.source_digest(package_root())
    assert len(depfp.package_graph()) == 64


def test_version_bump_keeps_key_when_sources_unchanged(monkeypatch):
    """The tentpole property: a release that does not touch a scenario's
    closure must keep the warm cache."""
    entry = _registered()
    params = dict(entry.params)
    before = cache_key(entry, params)
    monkeypatch.setattr("repro.__version__", "99.0.0")
    assert cache_key(entry, params) == before


def test_edit_outside_the_scenario_module_changes_its_key(tmp_path, monkeypatch):
    """``table01_resources32`` never reaches the serve report module, yet
    editing it must still invalidate the table: no call edge can be missed."""
    tree = _package_copy(tmp_path)
    entry = _registered()
    params = dict(entry.params)
    monkeypatch.setattr(depfp, "_DIGEST", depfp.source_digest(tree))
    before = cache_key(entry, params)

    report = tree / "serve" / "report.py"
    report.write_text(report.read_text(encoding="utf-8") + "\n# edited\n", encoding="utf-8")
    monkeypatch.setattr(depfp, "_DIGEST", depfp.source_digest(tree))
    assert cache_key(entry, params) != before


def test_renaming_a_file_changes_the_digest(tmp_path):
    tree = _package_copy(tmp_path)
    before = depfp.source_digest(tree)
    (tree / "serve" / "report.py").rename(tree / "serve" / "report_renamed.py")
    assert depfp.source_digest(tree) != before


def test_load_and_store_derive_the_key_once(tmp_path, monkeypatch):
    calls = []
    original = depfp.scenario_fingerprint

    def counting(scenario):
        calls.append(scenario.name)
        return original(scenario)

    monkeypatch.setattr(depfp, "scenario_fingerprint", counting)
    cache = ResultCache(tmp_path)
    cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    assert len(calls) == 1
    assert cache.load(_scenario(), {"n": 3}) is not None
    assert len(calls) == 2


def test_stored_envelope_records_key_components(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    envelope = json.loads(path.read_text(encoding="utf-8"))
    components = envelope["key_components"]
    assert components["fingerprint"] == depfp.scenario_fingerprint(_scenario())
    assert components["params"] == {"n": 3}
    assert envelope["key"] == cache_key(_scenario(), {"n": 3})


# -- concurrent writers -------------------------------------------------------

def test_concurrent_same_key_stores_do_not_collide(tmp_path, monkeypatch):
    """A second writer stores the same key between the first writer's write
    and its rename (``repro sweep`` and ``repro dse`` share one cache
    directory); both stores must succeed and leave one valid entry."""
    cache = ResultCache(tmp_path)
    entry, params = _scenario(), {"n": 3}
    real_replace = os.replace
    interleaved = []

    def replace_after_a_rival_store(src, dst):
        if not interleaved:
            interleaved.append(src)
            ResultCache(tmp_path).store(entry, params, _result([[3]]), host_seconds=0.2)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_after_a_rival_store)
    path = cache.store(entry, params, _result([[3]]), host_seconds=0.1)
    monkeypatch.setattr(os, "replace", real_replace)

    assert interleaved
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert cache.load(entry, params) is not None


def test_failed_store_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        ResultCache(tmp_path).store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    assert list(tmp_path.iterdir()) == []


# -- miss attribution ---------------------------------------------------------

def test_explain_cold_cache(tmp_path):
    cache = ResultCache(tmp_path)
    lines = cache.explain(_scenario(), {"n": 3})
    assert len(lines) == 1
    assert "no cached entry" in lines[0]


def test_explain_attributes_params_change(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    lines = cache.explain(_scenario(), {"n": 4})
    assert any("params" in line for line in lines)


def test_explain_attributes_fingerprint_change(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    monkeypatch.setattr(depfp, "_DIGEST", "0" * 64)
    lines = cache.explain(_scenario(), {"n": 3})
    assert any("fingerprint changed" in line for line in lines)


def test_explain_reports_hit(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(_scenario(), {"n": 3}, _result([[3]]), host_seconds=0.1)
    lines = cache.explain(_scenario(), {"n": 3})
    assert any("identical" in line for line in lines)
