import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from forcinglab import cli, iteration, projection
from forcinglab.boolalg import ro_algebra
from forcinglab.cli import (ExperimentConfig, InstanceSpec, execute,
                            format_poset_text, format_provider_tables,
                            generate_instances, human_summary, main,
                            parse_poset_text, parse_provider_tables,
                            read_config_file, run_cifs_suite, run_suite,
                            write_report)
from forcinglab.config import DEFAULT_CAPS, CapExceeded, fields, replace
from forcinglab.iteration import TableProvider, build_iteration
from forcinglab.names import Name, name_text
from forcinglab.poset import (Poset, PosetError, antichain_with_top,
                              diamond_poset, point_poset)
from forcinglab.projection import ProjectionError

import algebra_oracle
from generation_oracle import (generate_instances_exhaustive,
                               tree_canon_per_automorphism)
from test_iteration import stage_facts

SRC = Path(__file__).resolve().parents[1] / "src"


class TestPosetTextFormat:
    def test_parse(self):
        p = parse_poset_text("top: 1\na < 1\nb < 1\n")
        assert p.n == 3
        assert p.labels[p.top] == "1"

    def test_round_trip(self):
        for poset in (antichain_with_top(3), diamond_poset()):
            text = format_poset_text(poset)
            back = parse_poset_text(text)
            assert back.canonical_key() == poset.canonical_key()

    def test_missing_top_rejected(self):
        with pytest.raises(Exception, match="top"):
            parse_poset_text("a < b\n")

    @pytest.mark.parametrize("text, message", [
        ("top: 1\n < 1\n", "line 2: empty element id"),
        ("top: 1\na <\n", "line 2: empty element id"),
        ("top: 1\na < b < 1\nb < 1\n", "line 2: expected `<id> < <id>`"),
        ("top: 1\na < 1\ntop: a\n", "line 3: a second `top:` line"),
    ], ids=["empty-id", "missing-upper-id", "two-edges", "second-top"])
    def test_malformed_line_rejected(self, text, message):
        with pytest.raises(PosetError) as exc:
            parse_poset_text(text)
        assert str(exc.value) == message


class TestProviderTableFormat:
    def test_round_trip(self):
        cfg = ExperimentConfig(max_poset=3, max_stages=2, seed=0)
        instances = generate_instances(cfg)
        spec, iteration = max(instances,
                              key=lambda si: si[1].stages[-1].poset.n)
        text = format_provider_tables(spec)
        provider = parse_provider_tables(text)
        from forcinglab.iteration import build_iteration
        rebuilt = build_iteration(provider, cfg.caps(), allow_partial=True)
        assert [s.poset.n for s in rebuilt.stages] == \
            [s.poset.n for s in iteration.stages]

    def test_every_sweep_payload_parses_back(self, default_sweep):
        caps = ExperimentConfig(max_stages=3).caps()
        for spec, it in default_sweep:
            provider = parse_provider_tables(format_provider_tables(spec))
            assert [len(t) for t in provider.tables] == \
                [len(t) for t in spec.tables]
            rebuilt = build_iteration(provider, caps, allow_partial=True)
            assert [s.poset.n for s in rebuilt.stages] == \
                [s.poset.n for s in it.stages]

    POSET_P1 = "[poset p1]\ntop: 1\na < 1\nb < 1\n[provider]\n"

    @pytest.mark.parametrize("text, line", [
        ("stage 0", "stage 0"),                                   # no section
        ("[provdier]", "[provdier]"),                             # misspelt
        ("[poset]\ntop: 1", "[poset]"),                           # no ref
        (POSET_P1 + "G: -> p1", "G: -> p1"),                      # no stage yet
        (POSET_P1 + "stage 0\nG: -> p2", "G: -> p2"),             # unknown ref
        (POSET_P1 + "stage 0\nG: -> p1\nstage 1\nG:c -> p1",
         "G:c -> p1"),                                            # no element c
        (POSET_P1 + "stage 0\nG: -> p1\nG:a -> p1", "G:a -> p1"), # path too long
        (POSET_P1 + "stage 0\nG: -> p1\nstage 2", "stage 2"),    # stage skipped
    ])
    def test_a_malformed_line_is_named(self, text, line):
        # a ValueError of its own, not a KeyError or a bare tuple.index one
        with pytest.raises(ValueError) as raised:
            parse_provider_tables(text + "\n")
        assert type(raised.value) is ValueError
        assert str(raised.value).endswith(": " + line)

    @pytest.mark.parametrize("text, message", [
        ("[poset p1]\ntop: 1\n\na < 1\ntop: a\n[provider]\nstage 0\nG: -> p1",
         "line 5 in [poset p1]: a second `top:` line"),
        ("[poset p1]\n\n[provider]\nstage 0\nG: -> p1",
         "line 1 in [poset p1]: missing `top:` line"),
        (POSET_P1 + "stage 0\nG: -> p1\n[poset p1]\ntop: 1",
         "line 8: a second section: [poset p1]"),
        (POSET_P1 + "stage 0\nG: -> p1\nstage 1\nG:a -> p1\nG:a -> undef",
         "line 10 in [provider]: a second line for this path in stage 1: "
         "G:a -> undef"),
        (POSET_P1 + "stage 0\nG: -> p1\n[provider]",
         "line 8: a second section: [provider]"),
        (POSET_P1 + "stage 0\nG: -> p1\n[ poset \t p1 ]\ntop: 1",
         "line 8: a second section: [ poset \t p1 ]"),
        ("\n[poset p1]\ntop: 1\n1 < a\n[provider]\nstage 0\nG: -> p1",
         "line 2 in [poset p1]: top '1' is not above every element"),
        (POSET_P1 + "stage 0\nG = p1",
         "line 7 in [provider]: bad provider line: G = p1"),
        (POSET_P1 + "stage 0\nG: -> undef\nstage 1\nG:a -> p1",
         "line 9 in [provider]: path through an undefined step: G:a -> p1"),
    ], ids=["poset-line", "empty-poset", "second-poset", "second-path",
            "second-provider", "second-poset-spaced", "poset-invalid",
            "provider-line", "undefined-step"])
    def test_a_payload_error_names_its_line_and_section(self, text, message):
        # payload line numbers, blank lines counted, and every repeat refused
        with pytest.raises(ValueError) as raised:
            parse_provider_tables(text + "\n")
        assert str(raised.value) == message

    def test_the_documented_example_parses(self):
        provider = parse_provider_tables(
            self.POSET_P1 + "stage 0\nG: -> p1\nstage 1\nG:a -> p1\nG:b -> undef\n")
        p1 = provider.tables[0][()]
        assert p1.labels == ("1", "a", "b")
        assert provider.tables[1] == {(1,): p1, (2,): None}

    # sha256 of the payload texts of the --max-poset 3 --max-stages 3
    # instances, concatenated in instance-id order
    PAYLOAD_SHA256 = \
        "76640f6d30ca07fca5908e5435448f3574b992f6da1568350bb582e868b6f1f8"

    def test_payload_bytes_are_pinned(self, default_sweep):
        text = "".join(format_provider_tables(spec) for spec, _ in default_sweep)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PAYLOAD_SHA256

    def test_a_failing_instance_writes_its_tables(self, monkeypatch, tmp_path):
        # the report carries the tables of each failing instance, and of no
        # other, as its `instance` record
        cfg = ExperimentConfig(suite="theorem2", max_poset=3, max_stages=2,
                               seed=1, out=str(tmp_path / "r.jsonl"))
        spec, _ = max(generate_instances(cfg),
                      key=lambda si: si[1].stages[-1].poset.n)
        verify = cli.verify_theorem2

        def failing(ctx, instance="adhoc", **kwargs):
            if instance == spec.instance_id:
                raise ProjectionError("planted")
            return verify(ctx, instance=instance, **kwargs)

        monkeypatch.setattr(cli, "verify_theorem2", failing)
        report, meta = execute(cfg)
        write_report(report, meta, cfg.out)
        records = [json.loads(line)
                   for line in (tmp_path / "r.jsonl").read_text().splitlines()]
        assert {r["instance"] for r in records if r.get("status") == "fail"} \
            == {spec.instance_id}
        assert [r for r in records if r["kind"] == "instance"] == [
            {"kind": "instance", "instance": spec.instance_id,
             "tables": format_provider_tables(spec)}]


class TestGeneration:
    def test_census_frozen(self):
        assert len(generate_instances(ExperimentConfig(max_poset=3, max_stages=1))) == 3
        assert len(generate_instances(ExperimentConfig(max_poset=3, max_stages=2))) == 12

    def test_census_monotone_in_stage_bound(self):
        sizes = [len(generate_instances(ExperimentConfig(max_poset=3, max_stages=n)))
                 for n in (1, 2)]
        assert sizes[0] <= sizes[1]

    def test_census_monotone_in_poset_bound(self):
        small = len(generate_instances(ExperimentConfig(max_poset=1, max_stages=2)))
        large = len(generate_instances(ExperimentConfig(max_poset=3, max_stages=2)))
        assert small <= large

    def test_trivial_bounds(self):
        instances = generate_instances(ExperimentConfig(max_poset=2, max_stages=1))
        # only the undefined and the one-point step exist below 3 elements
        assert len(instances) == 2

    def test_deterministic_for_fixed_seed(self):
        a = [s.instance_id for s, _ in
             generate_instances(ExperimentConfig(max_poset=3, max_stages=2, seed=5))]
        b = [s.instance_id for s, _ in
             generate_instances(ExperimentConfig(max_poset=3, max_stages=2, seed=5))]
        assert a == b

    def test_seed_changes_neither_content_nor_order(self):
        a = generate_instances(ExperimentConfig(max_poset=3, max_stages=2, seed=1))
        b = generate_instances(ExperimentConfig(max_poset=3, max_stages=2, seed=2))
        assert {s.instance_id for s, _ in a} == {s.instance_id for s, _ in b}
        ids = [s.instance_id for s, _ in a]
        assert ids == [s.instance_id for s, _ in b] == sorted(ids)

    @pytest.mark.parametrize("max_stage_conditions", [None, 512])
    def test_instances_equal_a_build_from_their_tables(
            self, default_sweep, max_stage_conditions):
        # instances are built by extending their parent's final stage; each
        # must equal the iteration its own tables build from the root
        if max_stage_conditions is None:
            config = ExperimentConfig(max_poset=3, max_stages=3, seed=1)
            instances = default_sweep
            assert sum(spec.partial for spec, _ in instances) == 1
        else:
            config = ExperimentConfig(max_poset=3, max_stages=3, seed=1,
                                      max_stage_conditions=max_stage_conditions)
            instances = generate_instances(config)
        for spec, it in instances:
            want = build_iteration(TableProvider(spec.tables), config.caps(),
                                   allow_partial=True)
            assert it.partial == want.partial == spec.partial
            assert len(it.stages) == len(want.stages)
            for got, ref in zip(it.stages, want.stages):
                assert stage_facts(got) == stage_facts(ref), spec.instance_id

    def test_each_table_assignment_extends_its_parent_once(self, monkeypatch):
        config = ExperimentConfig(max_poset=3, max_stages=3, seed=1)
        catalog = cli._step_catalog(config.max_poset)

        def assignments(tables: list) -> int:
            """Table assignments the generation tree visits below a prefix,
            found by building every prefix from the root."""
            if len(tables) == config.max_stages:
                return 0
            try:
                final = build_iteration(TableProvider(tables), config.caps()).final
            except CapExceeded:
                return 0
            total = 0
            for steps in itertools.product(catalog, repeat=len(final.generics)):
                table = {p: q for p, q in zip(final.paths, steps) if q is not None}
                total += 1 + assignments(tables + [table])
            return total

        visited = assignments([])
        calls: Counter = Counter()
        for module, name in ((cli, "extend_stage"), (iteration, "extend_stage"),
                             (cli, "build_iteration")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        generate_instances(config)
        assert visited == 273
        assert calls["extend_stage"] <= visited
        assert calls["build_iteration"] <= 1

    @staticmethod
    def counted_builds(monkeypatch) -> Counter:
        """Count generation's extend_stage calls: stages built, by the
        depth they are built at, and assignments refused by the cap."""
        calls: Counter = Counter()

        def counted(prev, steps, caps, _fn=cli.extend_stage):
            try:
                stage = _fn(prev, steps, caps)
            except CapExceeded:
                calls["capped"] += 1
                raise
            calls[stage.index] += 1
            return stage

        monkeypatch.setattr(cli, "extend_stage", counted)
        return calls

    def test_one_stage_is_built_per_class_of_child(self, monkeypatch):
        # only the first assignment of each isomorphism class below a kept
        # parent reaches extend_stage: every built stage is kept in some
        # instance, and the rest of the calls are capped assignments
        calls = self.counted_builds(monkeypatch)
        instances = generate_instances(ExperimentConfig(max_poset=3, max_stages=3))
        kept = {id(stage) for _, it in instances for stage in it.stages[1:]}
        built = sum(v for k, v in calls.items() if k != "capped")
        assert built == len(kept) == 114
        assert built + calls["capped"] <= 123

    @pytest.mark.parametrize("bounds", [(3, 3), (4, 2)])
    def test_seen_rejects_no_total_instance(self, monkeypatch, bounds):
        # a final stage is built only for a new class, so every one of them
        # is recorded as its own total instance
        calls = self.counted_builds(monkeypatch)
        instances = generate_instances(ExperimentConfig(max_poset=bounds[0],
                                                        max_stages=bounds[1]))
        total = sum(not spec.partial for spec, _ in instances)
        assert calls[bounds[1]] == total > 0

    @staticmethod
    def generation_facts(instances) -> list:
        return [(spec.instance_id, spec.partial, spec.canon,
                 sorted((n, repr(path), q.canonical_key())
                        for n, table in enumerate(spec.tables)
                        for path, q in table.items()),
                 [stage_facts(stage) for stage in it.stages])
                for spec, it in instances]

    @pytest.mark.parametrize("bounds", [(3, 2), (3, 3), (4, 2)])
    def test_generation_equals_the_exhaustive_oracle(self, default_sweep,
                                                     bounds):
        # ids, tables by canonical key, partial flags and every stage are
        # those of building every assignment and rejecting at the leaves
        config = ExperimentConfig(max_poset=bounds[0], max_stages=bounds[1])
        instances = default_sweep if bounds == (3, 3) else generate_instances(config)
        assert self.generation_facts(instances) == \
            self.generation_facts(generate_instances_exhaustive(config))

    def test_pruning_by_a_smaller_group_fails_the_oracle(self, monkeypatch):
        # known-bad control: with only the identity left of each step
        # poset's automorphisms, isomorphic children look distinct and are
        # kept twice
        config = ExperimentConfig(max_poset=3, max_stages=3)
        want = self.generation_facts(generate_instances_exhaustive(config))
        automorphisms = Poset.automorphisms
        monkeypatch.setattr(Poset, "automorphisms",
                            lambda self: automorphisms(self)[:1])
        got = self.generation_facts(generate_instances(config))
        assert len(got) > len(want)

    @pytest.mark.parametrize("bounds", [(3, 3), (4, 2)])
    def test_tree_canon_equals_the_per_automorphism_oracle(self, default_sweep,
                                                           bounds):
        config = ExperimentConfig(max_poset=bounds[0], max_stages=bounds[1])
        instances = default_sweep if bounds == (3, 3) else generate_instances(config)
        assert len(instances) == {(3, 3): 100, (4, 2): 38}[bounds]
        catalog = cli._step_catalog(config.max_poset)
        catalog_index = {id(p): i for i, p in enumerate(catalog) if p is not None}
        # the form generation folded for each instance, partial ones included
        for spec, it in instances:
            assert spec.canon[1] == \
                tree_canon_per_automorphism(it, catalog_index), spec.instance_id

    def test_generation_runs_no_invariant_search(self, monkeypatch):
        # the catalog's canonical-key searches already found every
        # automorphism that generation needs
        catalog = cli._step_catalog(3)
        calls = Counter()

        def counted(self, _fn=Poset._invariants):
            calls["invariants"] += 1
            return _fn(self)

        monkeypatch.setattr(Poset, "_invariants", counted)
        generate_instances(ExperimentConfig(max_poset=3, max_stages=3))
        assert calls["invariants"] == 0
        q = catalog[-1]
        assert q.automorphisms() is q.automorphisms()

    def test_generation_builds_no_condition_label(self, monkeypatch):
        # stage labels are only read when a failing check names conditions
        label = iteration._cond_label
        calls = Counter()

        def counted(cond):
            calls["label"] += 1
            return label(cond)

        monkeypatch.setattr(iteration, "_cond_label", counted)
        instances = generate_instances(ExperimentConfig(max_poset=3, max_stages=3))
        assert calls["label"] == 0
        for _, it in instances:
            for stage in it.stages:
                assert list(stage.poset.labels) == \
                    [label(c) for c in stage.conditions]

    def test_isomorph_reduction(self):
        # swapping the two step options across the symmetric stage-1 generics
        # must not produce two instances
        instances = generate_instances(ExperimentConfig(max_poset=3, max_stages=2))
        canons = [s.canon for s, _ in instances]
        assert len(canons) == len(set(canons))


class TestRunReports:
    # sha256 of the `run --suite all --max-poset 3 --seed 1` report, by
    # --max-stages; a change that alters report bytes on purpose updates
    # these and says why
    REPORT_SHA256 = {
        2: "c2f0ba0b955ab01552bf8b1b6e5c9f8d01d09295c66c8bef035be1f895111c5b",
        3: "ab9ad7ec8a6c0c24f047ea7ecad5bb627733366de7a394dbf773b40bfb0ab511",
    }

    @pytest.mark.parametrize("stages", sorted(REPORT_SHA256))
    def test_report_bytes_are_pinned(self, tmp_path, stages):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--suite", "all", "--max-poset", "3",
                     "--max-stages", str(stages), "--seed", "1",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            self.REPORT_SHA256[stages]

    def test_bit_identical_reports(self, tmp_path):
        cfg = ExperimentConfig(suite="theorem2", max_poset=3, max_stages=2,
                               seed=9, out=str(tmp_path / "r1.jsonl"))
        report, meta = execute(cfg)
        write_report(report, meta, cfg.out)
        cfg2 = ExperimentConfig(suite="theorem2", max_poset=3, max_stages=2,
                                seed=9, out=str(tmp_path / "r2.jsonl"))
        report2, meta2 = execute(cfg2)
        write_report(report2, meta2, cfg2.out)
        assert (tmp_path / "r1.jsonl").read_bytes() == \
            (tmp_path / "r2.jsonl").read_bytes()

    def test_contexts_are_dropped_once_an_instance_is_done(self, monkeypatch):
        instances = []

        def keep(config):
            instances.extend(generate_instances(config))
            return instances

        monkeypatch.setattr(cli, "generate_instances", keep)
        cfg = ExperimentConfig(suite="projection-lemmas", max_poset=3,
                               max_stages=2, seed=0)
        _, meta = execute(cfg)
        assert meta["census"]["contexts"] > 0
        assert instances and all(not it.context_cache for _, it in instances)

    @pytest.mark.parametrize("suite", ["corollary15", "theorem2",
                                       "projection-lemmas"])
    def test_no_stage_is_built_after_generation(self, monkeypatch, suite):
        # each quotient stage make_context asks for, and each stage a
        # Corollary 15 rebuild asks for, is one that generation built from
        # the same parent and step posets and that its instance still
        # holds, so extend_stage returns it.  The run starts from a fresh
        # root stage, so generation builds its stages itself rather than
        # reusing the children an earlier test's sweep still holds
        fresh_root = functools.cache(iteration.root_stage.__wrapped__)
        monkeypatch.setattr(iteration, "root_stage", fresh_root)
        monkeypatch.setattr(projection, "root_stage", fresh_root)
        generated, rebuilds, built = [False], [0], []
        stage, rebuild = iteration.Stage, projection.build_iteration
        generate = cli.generate_instances

        def counted_stage(*args):
            built.append(generated[0])
            return stage(*args)

        def counted_generate(config):
            instances = generate(config)
            generated[0] = True
            return instances

        def counted_rebuild(*args):
            rebuilds[0] += 1
            return rebuild(*args)

        monkeypatch.setattr(iteration, "Stage", counted_stage)
        monkeypatch.setattr(cli, "generate_instances", counted_generate)
        monkeypatch.setattr(projection, "build_iteration", counted_rebuild)
        report, meta = execute(ExperimentConfig(
            suite=suite, max_poset=3, max_stages=3, seed=1))
        assert report.ok and generated[0]
        assert meta["census"]["contexts"] == 776
        assert rebuilds[0] == (776 if suite == "corollary15" else 0)
        assert built.count(False) > 0 and built.count(True) == 0

    def test_limit_clause_is_stated_once_per_run(self):
        def limit_records(suite):
            report, _ = execute(ExperimentConfig(suite=suite, max_poset=3,
                                                 max_stages=1, seed=0))
            return [(c.status, c.instance) for c in report.checks
                    if c.check == "limit-clause"]

        assert limit_records("projection-lemmas") == [("skip", "sweep")]
        assert limit_records("theorem2") == []

    def test_report_is_count_stable_jsonl(self, tmp_path):
        cfg = ExperimentConfig(suite="lemma1", max_poset=3, max_stages=2,
                               seed=0, out=str(tmp_path / "r.jsonl"))
        report, meta = execute(cfg)
        write_report(report, meta, cfg.out)
        lines = (tmp_path / "r.jsonl").read_text().splitlines()
        kinds = [json.loads(l)["kind"] for l in lines]
        assert kinds[0] == "meta" and kinds[-1] == "summary"
        assert kinds.count("check") == len(report.checks)

    def test_a_report_with_no_check_lines_is_meta_and_summary(self, tmp_path):
        # no stage, so lemma 1 has nothing to check on the one instance
        out = tmp_path / "r.jsonl"
        assert main(["run", "--suite", "lemma1", "--max-stages", "0",
                     "--out", str(out)]) == 0
        meta, summary, end = out.read_text(encoding="utf-8").split("\n")
        assert end == ""
        assert json.loads(meta)["census"] == {
            "instances": 1, "partial_instances": 0, "contexts": 0}
        assert json.loads(summary) == {
            "kind": "summary", "counterexamples": [],
            "counts": {"pass": 0, "fail": 0, "skip": 0}}

    def test_clean_run_exit_zero(self, tmp_path):
        rc = main(["run", "--suite", "lemma1", "--max-poset", "3",
                   "--max-stages", "1", "--seed", "1",
                   "--out", str(tmp_path / "r.jsonl")])
        assert rc == 0

    def test_replay_unknown_id_is_an_error(self, tmp_path, capsys):
        rc = main(["replay", "cx-000000000000", "--suite", "lemma1",
                   "--max-poset", "3", "--max-stages", "1", "--seed", "1",
                   "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_replay_subcommand_unknown_id(self, tmp_path):
        rc = main(["replay", "cx-ffffffffffff", "--suite", "lemma1",
                   "--max-poset", "3", "--max-stages", "1",
                   "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2

    @pytest.mark.parametrize("stages", [0, 1])
    def test_a_ladder_above_the_stage_cap_is_skipped(self, tmp_path, stages):
        # the default ladder has two rungs: the cap aborts the toy
        # iteration, not the run, and the probe builds its own stage 1
        out = tmp_path / "r.jsonl"
        assert main(["run", "--suite", "all", "--max-poset", "2",
                     "--max-stages", str(stages), "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        cifs = [(r["check"], r["status"], r["detail"].get("reason"))
                for r in records if r.get("suite") == "cifs"]
        assert [c for c in cifs if c[1] != "pass"] == [
            ("iteration-capped", "skip",
             f"provider has 2 stages, above the cap {stages}")]
        assert ("tables-differ-between-generics", "pass", None) in cifs
        assert sum(c[0].startswith("collapse-count-") for c in cifs) == 16

    # sha256 of the `run --suite cifs` report, by the cap flag given: the
    # dependence probe builds its stage under caps of its own, so no cap
    # of the run reaches it
    CIFS_REPORT_SHA256 = {
        ("--max-stage-conditions", "1"):
            "fc39bf23b9648e53b4fbc92887018185dc3279a026d1804f9ae89b54738ad853",
        ("--max-stages", "0"):
            "be74accb175b86bc0b3a09ae2887063852eca88a7bac8e4967d9a172e360979b",
        ():
            "af54c38ab5a34f0a18fa3b8624c966e19cc57736ad717561445a49dbcaa8b9f0",
    }

    @pytest.mark.parametrize("caps", sorted(CIFS_REPORT_SHA256))
    def test_the_run_caps_do_not_reach_the_probe(self, tmp_path, caps):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--suite", "cifs", *caps, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            self.CIFS_REPORT_SHA256[caps]

    def test_a_one_point_rung_leaves_its_path_entry_undefined(self, tmp_path):
        # collapsing to m = 1 makes rung 0's step the one-point poset, so
        # the final paths are (None, 1) and (None, 2): the debris walk and
        # Lemma 20 skip entry 0, and only stage 1 has Lemma 20 records
        config = ExperimentConfig(cifs_ladder="1:1,1:2")
        it = build_iteration(cli._cifs_provider(config), config.caps())
        assert it.final.paths == [(None, 1), (None, 2)]
        out = tmp_path / "r.jsonl"
        assert main(["run", "--suite", "cifs", "--cifs-ladder", "1:1,1:2",
                     "--out", str(out)]) == 0
        checks = [r for r in map(json.loads, out.read_text().splitlines())
                  if r["kind"] == "check"]
        assert len(checks) == 29
        assert {r["status"] for r in checks} == {"pass"}
        lemma20 = [r["context"] for r in checks
                   if r["check"].startswith("lemma20-")]
        assert lemma20 and {c["stage"] for c in lemma20} == {1}

    def test_a_toy_iteration_over_the_condition_cap_is_partial(self, tmp_path):
        # the cap stops the toy iteration at a stage below the ladder's
        # last: the run labels it partial and factors no generic through it
        out = tmp_path / "r.jsonl"
        assert main(["run", "--suite", "cifs", "--max-poset", "2",
                     "--max-stages", "4", "--max-stage-conditions", "16",
                     "--out", str(out)]) == 0
        cifs = [(r["check"], r["status"], r["detail"].get("reason"))
                for r in map(json.loads, out.read_text().splitlines())
                if r.get("suite") == "cifs"]
        assert [c for c in cifs if c[1] != "pass"] == [
            ("iteration-partial", "skip", "stage cap aborted the toy iteration")]
        assert not [c for c in cifs if c[0] == "factor"]

    def test_replay_under_a_capped_ladder_is_not_found(self, tmp_path, capsys):
        rc = main(["replay", "cx-000000000000", "--suite", "all",
                   "--max-poset", "2", "--max-stages", "1",
                   "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_usage_error_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--suite", "nonsense"])
        assert exc.value.code == 2
        # knobs of the deleted universe sweeps are unknown flags and keys
        for flag in (["--max-rank", "2"], ["--universe-cap", "9"],
                     ["--pair-universe-cap", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(["run"] + flag)
            assert exc.value.code == 2
        cfile = tmp_path / "old.conf"
        cfile.write_text("pair_universe_cap = 4\n")
        assert main(["run", "--config", str(cfile),
                     "--out", str(tmp_path / "r.jsonl")]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["run", "--workers", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["run", "--replay", "X"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["run", "--hom-family-cap", "8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--cifs-ladder", "x"], ["--cifs-ladder", "2:3,1:2"],
        ["--cifs-ladder", "1:9"], ["--cifs-ladder", "6:2"],
        ["--cifs-formulas", "z in x"], ["--cifs-formulas", "x in ("],
        ["--cifs-formulas", "x in y #"],
        ["--max-stages", "-1"], ["--max-poset", "-1"],
        ["--max-poset", "10"], ["--max-stage-conditions", "0"],
        # the report cannot be written: an OSError after the suites ran
        ["--out", "{tmp}/missing/r.jsonl"]], ids="=".join)
    def test_bad_option_values_exit_two(self, flags, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        flags = [f.format(tmp=tmp_path) for f in flags]
        rc = main(["run", "--suite", "cifs", "--max-poset", "2",
                   "--max-stages", "1", "--out", str(out)] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_a_ladder_rung_below_one_exits_two(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--suite", "cifs", "--cifs-ladder", "1:0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: ladder cardinal surrogate must be >= 1\n"
        assert not out.exists()

    def test_bad_values_stop_a_run_before_the_sweep(self, tmp_path,
                                                      monkeypatch):
        def sweep(config):
            raise AssertionError("the table sweep ran")

        monkeypatch.setattr(cli, "generate_instances", sweep)
        for flags in (["--cifs-ladder", "1:9"], ["--cifs-formulas", "z in x"],
                      ["--max-stages", "-1"], ["--max-poset", "10"],
                      ["--max-stage-conditions", "0"]):
            assert main(["run", "--suite", "all", "--out",
                         str(tmp_path / "r.jsonl")] + flags) == 2

    def test_human_summary_counts_each_skip_reason(self):
        report, meta = execute(ExperimentConfig(
            suite="projection-lemmas", max_poset=3, max_stages=1, seed=0))
        report.skip("theorem2", "suite-capped", "it-x", {}, {"reason": "cap"})
        report.skip("theorem2", "suite-capped", "it-y", {}, {"reason": "cap"})
        lines = human_summary(report, meta).splitlines()
        assert [l for l in lines if l.startswith("skipped")] == [
            "skipped 1x projection-lemmas limit-clause: "
            "vacuous at this scale: no limit stages exist",
            "skipped 2x theorem2 suite-capped: cap"]

    def test_human_summary_mentions_census(self, tmp_path):
        cfg = ExperimentConfig(suite="lemma1", max_poset=3, max_stages=1,
                               seed=0, out=str(tmp_path / "r.jsonl"))
        report, meta = execute(cfg)
        text = human_summary(report, meta)
        assert "instances: 3" in text


class TestDriverFailures:
    """A suite driver turns what a check raises into a record of its own."""

    @staticmethod
    def raise_from(monkeypatch, name, error):
        def raising(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, name, raising)

    def one_step(self, suite, monkeypatch, name, error):
        """The records run_suite writes for one two-atom step when ``name``
        in the cli module raises ``error``."""
        self.raise_from(monkeypatch, name, error)
        it = build_iteration(TableProvider([{(): antichain_with_top(2)}]),
                             DEFAULT_CAPS)
        spec = InstanceSpec("it-step", it.provider.tables)
        rep = run_suite(suite, spec, it, ExperimentConfig())
        return [(c.suite, c.check, c.status, c.context) for c in rep.checks]

    def test_a_capped_suite_is_skipped_per_context(self, monkeypatch):
        assert self.one_step("theorem2", monkeypatch, "verify_theorem2",
                             CapExceeded("capped")) == [
            ("theorem2", "suite-capped", "skip", {"alpha": 1, "generic": gi})
            for gi in (0, 1)]

    def test_a_projection_error_fails_the_bridge(self, monkeypatch):
        assert self.one_step("theorem2", monkeypatch, "verify_theorem2",
                             ProjectionError("no bridge")) == [
            ("theorem2", "bridge", "fail", {"alpha": 1, "generic": gi})
            for gi in (0, 1)]

    def test_a_failed_factorization_fails_theorem16(self, monkeypatch):
        assert self.one_step("theorem16", monkeypatch, "factor_generic",
                             ProjectionError("no prefix")) == [
            ("theorem16", "factor", "fail", {"alpha": 1, "full_generic": gi})
            for gi in (0, 1)]

    def test_a_failed_factorization_fails_cifs(self, monkeypatch):
        self.raise_from(monkeypatch, "factor_generic",
                        ProjectionError("no prefix"))
        rep = run_cifs_suite(ExperimentConfig())
        failed = [(c.suite, c.check, c.status, c.context) for c in rep.failures]
        assert failed and failed == [
            ("cifs", "factor", "fail", {"full_generic": gi})
            for gi in range(len(failed))]

    @staticmethod
    def run_records(tmp_path, suite: str) -> list[dict]:
        """The check records of an s2 seed 1 run of ``suite``; the run must
        exit 0."""
        out = tmp_path / "r.jsonl"
        assert main(["run", "--suite", suite, "--max-poset", "3",
                     "--max-stages", "2", "--seed", "1", "--out", str(out)]) == 0
        return [r for r in map(json.loads, out.read_text().splitlines())
                if r["kind"] == "check"]

    @classmethod
    def capped_run(cls, monkeypatch, tmp_path, suite: str) -> list[dict]:
        """The check records of an s2 seed 1 run of ``suite`` whose
        quotient stages are capped at one condition, so that every context
        build refuses; the run must exit 0."""
        extend = projection.extend_stage
        monkeypatch.setattr(
            projection, "extend_stage", lambda stage, steps, caps:
            extend(stage, steps, caps.with_(max_stage_conditions=1)))
        return cls.run_records(tmp_path, suite)

    def test_capped_contexts_are_labeled_skips(self, monkeypatch, tmp_path):
        # a cap that refuses every context build: run_suite and the cifs
        # factorization each give a labeled skip with the cap's reason, no
        # failure, and the run exits 0
        checks = self.capped_run(monkeypatch, tmp_path, "all")
        assert not [r for r in checks if r["status"] == "fail"]
        capped = [r for r in checks if r["check"] == "context-capped"]
        assert {r["suite"] for r in capped} == {
            "cifs", "corollary15", "projection-lemmas", "theorem16", "theorem2"}
        assert all(r["status"] == "skip" and "more conditions than the cap 1"
                   in r["detail"]["reason"] for r in capped)

    def test_an_algebra_cap_bounds_only_the_element_route(self, monkeypatch,
                                                          tmp_path):
        # a passing run lists no algebra's elements, so an algebra cap of
        # one atom caps no context: the run writes the uncapped report
        caps = ExperimentConfig.caps
        monkeypatch.setattr(ExperimentConfig, "caps",
                            lambda self: caps(self).with_(algebra_max_base=1))
        self.run_records(tmp_path, "all")
        assert hashlib.sha256((tmp_path / "r.jsonl").read_bytes()).hexdigest() \
            == TestRunReports.REPORT_SHA256[2]

    @staticmethod
    def thirteen_atoms():
        """An iteration whose alpha = 1 context has a 13-atom final level."""
        it = build_iteration(TableProvider([
            {(): point_poset()}, {(None,): antichain_with_top(13)}]))
        return it, projection.make_context(it, 1, 0)

    def test_a_planted_map_on_a_13_atom_level_is_suite_capped(self):
        # the level passes on its atom images; a planted map takes the
        # element route, whose listing of 2^13 elements is capped
        it, ctx = self.thirteen_atoms()
        level = ctx.final_level
        assert len(level.source.base.atoms) == 13
        assert projection.verify_theorem2(ctx).ok
        copy = replace(level)
        copy.pi_prime = level.pi_prime
        planted = replace(ctx, levels={**ctx.levels, 2: copy})
        rep = cli.run_unit("theorem2", "it-13", {"alpha": 1, "generic": 0},
                           lambda: planted,
                           lambda c: projection.verify_theorem2(c, "it-13"))
        assert [(c.check, c.status, c.detail) for c in rep.checks] == [
            ("suite-capped", "skip", {"reason": "poset has 13 atoms, above "
                                      "the algebra enumeration bound 12"})]

    @pytest.mark.parametrize("suite, verify, failing", [
        ("theorem2", projection.verify_theorem2, ["item2-onto"]),
        ("projection-lemmas", projection.verify_projection_lemmas,
         ["L3-principal-onto", "L8-onto", "L12-forcing-transport"])])
    def test_a_non_onto_homomorphism_writes_its_records_at_any_algebra_cap(
            self, suite, verify, failing):
        # pi sends the up-set of the first source atom to the quotient top:
        # a complete homomorphism that is not onto.  Its atom images decide
        # every check and name every witness, so an algebra cap of one atom
        # writes the records the default cap does
        a2 = antichain_with_top(2)

        def records(caps):
            it = build_iteration(TableProvider([{(): a2}, {(0,): a2, (1,): a2}]))
            ctx = projection.make_context(it, 1, 0, caps)
            planted = next(algebra_oracle.planted_homs(ctx.final_level))
            rep = cli.run_unit(
                suite, "it-x", {"alpha": 1, "generic": 0},
                lambda: replace(ctx, levels={**ctx.levels, 2: planted}),
                lambda c: verify(c, instance="it-x"))
            return rep.checks

        capped = records(DEFAULT_CAPS.with_(algebra_max_base=1))
        checks = records(DEFAULT_CAPS)
        assert [c.to_json() for c in capped] == [c.to_json() for c in checks]
        assert len(checks) == {"theorem2": 3, "projection-lemmas": 12}[suite]
        assert [c.check for c in checks if c.status == "fail"] == failing

    def test_a_wrong_pi_on_a_13_atom_level_fails(self, fresh_orders):
        # two source atoms sent to one quotient atom: the atom images fail,
        # so the map is no complete homomorphism, and the element route
        # that writes the witnesses cannot list 2^13 elements; Theorem 2
        # and the lemma suite record a failure, not a skip.  Theorem 16
        # reads pi alone and writes its item records
        it, ctx = self.thirteen_atoms()
        level = ctx.final_level
        a0, a1 = level.source.base.atoms[:2]
        pi = list(level.pi)
        pi[a1] = pi[a0]
        wrong_level = replace(level, pi=pi)
        wrong = replace(ctx, levels={**ctx.levels, 2: wrong_level})
        it.context_cache[1, 0, it.caps] = wrong
        error = {"error": "pi_prime at level 2 is no complete homomorphism "
                 "(its atom images fail), and its witnesses need the elements "
                 "of algebras of 13 and 13 atoms"}
        for suite, verify in (("theorem2", projection.verify_theorem2),
                              ("projection-lemmas",
                               projection.verify_projection_lemmas)):
            rep = cli.run_unit(suite, "it-13", {"alpha": 1, "generic": 0},
                               lambda: wrong, verify)
            assert [(c.check, c.status, c.detail) for c in rep.checks] == [
                ("bridge", "fail", error)]
        _, hmask, rep = projection.factor_generic(it, 1, 0)
        assert [(c.check, c.status) for c in rep.checks] == [
            ("item1-prefix-generic", "pass"),
            ("item2-quotient-generic", "pass"),
            ("item3-evaluation-identity", "fail")]
        A = level.source
        assert A.base._order.ascending is None
        # the element walk, with the cap lifted to list the 2^13 elements,
        # finds the witness failing
        lifted = ro_algebra(A.base, max_base=13)
        failures = algebra_oracle.identity_failures(
            algebra_oracle.column_table(replace(wrong_level, source=lifted)),
            lifted, it.stages[2].generics[0].mask, hmask)
        assert 1 << a1 in failures
        assert rep.checks[2].detail == {
            "nonzero_elements": (1 << 13) - 1,
            "counterexample": name_text(Name([(Name((), A), 1 << a1)], A), A)}

    def test_one_disagreeing_atom_on_a_13_atom_level_fails_item3(
            self, fresh_orders):
        # the top's image moved to that of a source atom a outside G_full:
        # the atom images still decide the level, a is the one atom that
        # disagrees, and its singleton is written as its cut, with no
        # element of the 2^13 listed
        it, ctx = self.thirteen_atoms()
        level = ctx.final_level
        A, top = level.source, it.stages[2].poset.top
        G_full = it.stages[2].generics[0]
        a = next(a for a in A.base.atoms if not G_full.mask >> a & 1)
        pi = list(level.pi)
        pi[top] = pi[a]
        it.context_cache[1, 0, it.caps] = replace(
            ctx, levels={**ctx.levels, 2: replace(level, pi=pi)})
        rep = cli.run_unit("theorem16", "it-13",
                           {"alpha": 1, "full_generic": 0},
                           lambda: projection.factor_generic(it, 1, 0)[2])
        assert [(c.status, c.detail) for c in rep.checks
                if c.check == "item3-evaluation-identity"] == [
            ("fail", {"nonzero_elements": (1 << 13) - 1,
                      "counterexample": f"{{({{}},{A.cut(1 << a):#x})}}"})]
        # the witness name builds over the cap and writes the same text
        witness = Name([(Name((), A), 1 << a)], A)
        assert name_text(witness, A) == rep.checks[2].detail["counterexample"]
        assert A.base._order.ascending is None

    def test_theorem16_skips_only_the_factorizations_it_runs(
            self, monkeypatch, tmp_path):
        # theorem16 builds contexts only inside factor_generic, so each
        # capped factorization is one skip and no context is walked apart:
        # the 12 below the final stage, which build a quotient stage (at
        # alpha = N the context is its root level alone)
        capped = [r for r in self.capped_run(monkeypatch, tmp_path, "theorem16")
                  if r["check"] == "context-capped"]
        assert len(capped) == 12
        assert all(r["context"]["alpha"] == 1 for r in capped)
        assert {tuple(sorted(r["context"])) for r in capped} == {
            ("alpha", "full_generic")}

    def test_an_off_by_one_closed_form_fails_every_collapse_count(
            self, monkeypatch):
        count = cli._closed_form_injection_count
        monkeypatch.setattr(cli, "_closed_form_injection_count",
                            lambda n, m: count(n, m) + 1)
        rep = run_cifs_suite(ExperimentConfig())
        assert {c.check for c in rep.failures} == {
            f"collapse-count-{n}-{m}" for n in range(4) for m in range(1, 5)}

    def test_replay_writes_the_record_of_a_found_counterexample(
            self, monkeypatch, tmp_path, capsys):
        # the same off-by-one: run exits 1 and lists each failure's id,
        # and replay of one id exits 1 and writes that record's line
        count = cli._closed_form_injection_count
        monkeypatch.setattr(cli, "_closed_form_injection_count",
                            lambda n, m: count(n, m) + 1)
        flags = ["--suite", "cifs", "--max-poset", "2", "--max-stages", "1",
                 "--seed", "1"]
        out = tmp_path / "run.jsonl"
        assert main(["run", *flags, "--out", str(out)]) == 1
        failed = {r["counterexample"]: line
                  for line in out.read_text().splitlines()
                  for r in [json.loads(line)] if r.get("status") == "fail"}
        assert len(failed) == 16
        listed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("counterexamples: ")]
        assert listed == ["counterexamples: " + ", ".join(sorted(failed))]
        cex, line = next(iter(failed.items()))
        replayed = tmp_path / "replay.jsonl"
        assert main(["replay", cex, *flags, "--out", str(replayed)]) == 1
        assert replayed.read_text() == line + "\n"
        assert capsys.readouterr().out == line + "\n"


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfile = tmp_path / "exp.conf"
        cfile.write_text("# sweep bounds\nsuite = lemma1\nmax_poset = 3\n"
                         "max-stages = 1\nseed = 4\n")
        parsed = read_config_file(str(cfile))
        assert parsed == {"suite": "lemma1", "max_poset": "3",
                          "max_stages": "1", "seed": "4"}
        rc = main(["run", "--config", str(cfile),
                   "--out", str(tmp_path / "r.jsonl"), "--seed", "7"])
        assert rc == 0
        meta = json.loads((tmp_path / "r.jsonl").read_text().splitlines()[0])
        assert meta["config"]["seed"] == 7
        assert meta["config"]["suite"] == "lemma1"

    def test_max_poset_above_the_search_cap_rejected(self, tmp_path, capsys,
                                                     monkeypatch):
        def sweep(config):
            raise AssertionError("the table sweep ran")

        monkeypatch.setattr(cli, "generate_instances", sweep)
        cfile = tmp_path / "wide.conf"
        cfile.write_text("suite = all\nmax_poset = 10\n")
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfile), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: max_poset must be in 0..9, got 10\n")
        assert not out.exists()

    def test_stage_condition_cap_below_one_rejected(self, tmp_path, capsys):
        # a cap of 0 fits no stage above the root, so every instance would
        # be partial and the run would certify nothing
        cfile = tmp_path / "capped.conf"
        cfile.write_text("suite = lemma1\nmax_stage_conditions = 0\n")
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfile), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: max_stage_conditions must be >= 1, got 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, error", [
        ("suite lemma1\n", "{cfile}:1: expected key = value"),
        ("# bounds\nsuite = bogus\n", "unknown suite bogus")],
        ids=["no-equals", "unknown-suite"])
    def test_a_bad_config_line_or_suite_is_an_error(self, tmp_path, capsys,
                                                    text, error):
        cfile = tmp_path / "bad.conf"
        cfile.write_text(text)
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", str(cfile), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {error.format(cfile=cfile)}\n"
        assert not out.exists()

    def test_every_field_but_out_is_echoed_and_is_a_run_flag(self):
        keys = set(fields(ExperimentConfig)) - {"out"}
        assert set(ExperimentConfig().echo()) == keys
        run_flags = set(vars(cli._build_parser().parse_args(["run"])))
        assert keys <= run_flags

    @pytest.mark.parametrize("key", ["bogus", "caps", "echo", "__module__"])
    def test_bad_key_rejected(self, tmp_path, capsys, key):
        # a method or dunder of the config is no key: only its fields are
        cfile = tmp_path / "bad.conf"
        cfile.write_text(f"{key} = 3\n")
        rc = main(["run", "--config", str(cfile), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"


def test_console_entry_point_runs(tmp_path):
    out = tmp_path / "r.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "forcinglab.cli", "run", "--suite", "lemma1",
         "--max-poset", "2", "--max-stages", "1", "--seed", "0",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "lemma1" in proc.stdout
    assert out.exists()
