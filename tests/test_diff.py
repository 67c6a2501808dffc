"""Tests for ``repro.obs.diff`` — structural run/variant comparison.

Units over hand-built structures (flatten, diff_flat ordering, doc
matching) plus a real variant split: one observed E12 run divided
under its declared config variants and diffed label-against-label.
"""

from __future__ import annotations

import json

import pytest

from repro import __main__ as cli
from repro.analysis import engine
from repro.obs import diff as obs_diff


class TestFlatten:
    def test_nested_paths(self):
        flat = obs_diff.flatten({"a": {"b": 1, "c": [10, 20]}, "d": "x"})
        assert flat == {"a.b": 1, "a.c.0": 10, "a.c.1": 20, "d": "x"}

    def test_empty_containers_vanish(self):
        assert obs_diff.flatten({"a": {}, "b": []}) == {}

    def test_scalar_root(self):
        assert obs_diff.flatten(5, "leaf") == {"leaf": 5}


class TestDiffFlat:
    def test_equal_and_changed(self):
        out = obs_diff.diff_flat(
            {"x": 1, "y": 2, "gone": 0},
            {"x": 1, "y": 4, "new": 9},
        )
        assert out["equal"] == 1
        assert out["only_a"] == ["gone"]
        assert out["only_b"] == ["new"]
        (entry,) = out["changed"]
        assert entry == {"key": "y", "a": 2, "b": 4, "delta": 2,
                         "ratio": 2.0}

    def test_bool_is_not_int(self):
        out = obs_diff.diff_flat({"flag": True}, {"flag": 1})
        assert out["equal"] == 0
        assert [e["key"] for e in out["changed"]] == ["flag"]

    def test_int_float_equality_is_equal(self):
        out = obs_diff.diff_flat({"x": 0}, {"x": 0.0})
        assert out["equal"] == 1

    def test_zero_base_has_no_ratio(self):
        (entry,) = obs_diff.diff_flat({"x": 0}, {"x": 5})["changed"]
        assert entry["delta"] == 5
        assert "ratio" not in entry

    def test_ordering_biggest_relative_move_first(self):
        out = obs_diff.diff_flat(
            {"small": 100, "big": 10, "text": "a"},
            {"small": 101, "big": 30, "text": "b"},
        )
        assert [e["key"] for e in out["changed"]] == [
            "text", "big", "small",
        ]


class TestDiffRecords:
    def test_provenance_keys_ignored(self):
        out = obs_diff.diff_records(
            {"id": "E1", "source": "here", "schema_version": 3},
            {"id": "E1", "source": "there", "schema_version": 2},
        )
        assert out["changed"] == []
        assert out["equal"] == 1


class TestDiffDocs:
    def test_matched_by_id_in_numeric_order(self):
        doc_a = {"experiments": [
            {"id": "E2", "x": 1}, {"id": "E10", "x": 5},
        ]}
        doc_b = {"experiments": [
            {"id": "E2", "x": 2}, {"id": "E11", "x": 5},
        ]}
        out = obs_diff.diff_docs(doc_a, doc_b)
        assert list(out) == ["E2", "E10", "E11"]
        assert out["E2"]["changed"][0]["key"] == "x"
        assert out["E10"]["only_a"] == ["<entire record>"]
        assert out["E11"]["only_b"] == ["<entire record>"]


class TestVariantSplit:
    def test_observed_handles_group_under_labels(self):
        spec = engine.spec_for("E12")
        _result, observed = engine.observe(spec)
        groups, unmatched = obs_diff.variant_observations(spec, observed)
        assert set(groups) == {v.label for v in spec.variants}
        assert all(handles for handles in groups.values())
        assert len(unmatched) + sum(
            len(h) for h in groups.values()
        ) == len(observed)

    def test_variant_diff_ranks_counter_movement(self):
        spec = engine.spec_for("E12")
        _result, observed = engine.observe(spec)
        labels = [v.label for v in spec.variants]
        diff = obs_diff.diff_variant_labels(
            spec, observed, labels[0], labels[1]
        )
        assert diff["equal"] > 0
        changed_keys = {entry["key"] for entry in diff["changed"]}
        # The I/O BAT variant moves the bat_translation drift counter.
        assert "counters.bat_translation" in changed_keys

    def test_unknown_label_raises_with_known_labels(self):
        spec = engine.spec_for("E12")
        _result, observed = engine.observe(spec)
        with pytest.raises(KeyError, match="no recorder handles"):
            obs_diff.diff_variant_labels(
                spec, observed, "nope", spec.variants[0].label
            )


class TestRenderDiff:
    def test_prose_shape_and_limit(self):
        diff = obs_diff.diff_flat(
            {f"k{i:02d}": i for i in range(40)},
            {f"k{i:02d}": i + 1 for i in range(40)},
        )
        text = obs_diff.render_diff(diff, "A", "B", limit=5)
        assert text.splitlines()[0] == "diff: A  ->  B"
        assert "40 changed" in text
        assert "... 35 more changed leaves" in text

    def test_unmatched_note(self):
        diff = obs_diff.diff_flat({}, {})
        diff["unmatched_simulators"] = 2
        text = obs_diff.render_diff(diff, "A", "B")
        assert "2 simulator(s) matched no declared variant" in text


class TestDiffCli:
    @pytest.mark.parametrize("content", [[{"id": "E1"}], "E1"],
                             ids=["list", "string"])
    def test_json_that_is_not_an_object_exits_two(self, content, tmp_path,
                                                  capsys):
        path = tmp_path / "records.json"
        path.write_text(json.dumps(content))
        assert cli.main(["diff", str(path), str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"diff: {path}: a JSON ")

    def test_a_bench_doc_against_a_record_exits_two(self, tmp_path, capsys):
        doc, record = tmp_path / "doc.json", tmp_path / "record.json"
        doc.write_text(json.dumps({"experiments": []}))
        record.write_text(json.dumps({"id": "E1"}))
        assert cli.main(["diff", str(doc), str(record)]) == 2
        assert "repro bench compare" in capsys.readouterr().err

    def test_two_bench_docs_exit_two_and_name_bench_compare(self, tmp_path,
                                                           capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"experiments": []}))
        assert cli.main(["diff", str(doc), str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"diff: {doc}: a bench doc; compare bench docs with "
            "'repro bench compare'\n"
        )
