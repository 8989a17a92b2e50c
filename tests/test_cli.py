import hashlib
import itertools
import json
import subprocess
import sys
from collections import Counter

import pytest

from forcinglab import cli, iteration
from forcinglab.cli import (ExperimentConfig, InstanceSpec, execute,
                            format_poset_text, format_provider_tables,
                            generate_instances, human_summary, main,
                            parse_poset_text, parse_provider_tables,
                            read_config_file, run_cifs_suite, run_suite,
                            write_report)
from forcinglab.config import DEFAULT_CAPS, CapExceeded
from forcinglab.iteration import TableProvider, build_iteration
from forcinglab.poset import Poset, antichain_with_top, diamond_poset
from forcinglab.projection import ProjectionError

from generation_oracle import (generate_instances_exhaustive,
                               tree_canon_per_automorphism)
from test_iteration import stage_facts


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
                 sorted((n, repr(path), key)
                        for (n, path), key in spec.option_key.items()),
                 [stage_facts(stage) for stage in it.stages])
                for spec, it in instances]

    @pytest.mark.parametrize("bounds", [(3, 2), (3, 3), (4, 2)])
    def test_generation_equals_the_exhaustive_oracle(self, default_sweep,
                                                     bounds):
        # ids, tables by catalog index, partial flags and every stage are
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
        2: "647d2038045ff46213a2d3b9c52ac46baa21013cc280b1d14f8f5c3528cb4c96",
        3: "9ad2ee5a811025aff4143ff43f9e5873e4e5601bc7c7b32ca5bc5859008279d5",
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
        ["--max-stages", "-1"], ["--max-poset", "-1"],
        ["--max-poset", "10"]], ids="=".join)
    def test_bad_option_values_exit_two(self, flags, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        rc = main(["run", "--suite", "cifs", "--max-poset", "2",
                   "--max-stages", "1", "--out", str(out)] + flags)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bad_values_stop_a_run_before_the_sweep(self, tmp_path,
                                                      monkeypatch):
        def sweep(config):
            raise AssertionError("the table sweep ran")

        monkeypatch.setattr(cli, "generate_instances", sweep)
        for flags in (["--cifs-ladder", "1:9"], ["--cifs-formulas", "z in x"],
                      ["--max-stages", "-1"], ["--max-poset", "10"]):
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
        spec = InstanceSpec("it-step", it.provider.tables, {}, {})
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

    def test_an_off_by_one_closed_form_fails_every_collapse_count(
            self, monkeypatch):
        count = cli._closed_form_injection_count
        monkeypatch.setattr(cli, "_closed_form_injection_count",
                            lambda n, m: count(n, m) + 1)
        rep = run_cifs_suite(ExperimentConfig())
        assert {c.check for c in rep.failures} == {
            f"collapse-count-{n}-{m}" for n in range(4) for m in range(1, 5)}


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

    def test_bad_key_rejected(self, tmp_path):
        cfile = tmp_path / "bad.conf"
        cfile.write_text("bogus = 1\n")
        rc = main(["run", "--config", str(cfile), "--out", str(tmp_path / "r")])
        assert rc == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "forcinglab.cli", "run", "--suite", "lemma1",
         "--max-poset", "2", "--max-stages", "1", "--seed", "0",
         "--out", "/tmp/forcinglab-entry-test.jsonl"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "lemma1" in proc.stdout
