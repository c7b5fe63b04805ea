"""Tests for extraction, synthetic generation, corpus assembly, OMPSerial."""

import pytest

from repro.cfront import parse_source
from repro.dataset import (
    CorpusGenerator,
    DatasetConfig,
    OMPSerial,
    SyntheticGenerator,
    extract_loops_from_source,
    generate_omp_serial,
    load_jsonl,
    save_jsonl,
)
from repro.dataset.oracle import oracle_parallel
from repro.dataset.sample import LoopSample


class TestExtraction:
    SOURCE = """
    #include <stdio.h>
    double a[100], b[100], s;
    void kernel(void) {
        int i;
        #pragma omp parallel for reduction(+:s)
        for (i = 0; i < 100; i++)
            s += a[i];
        for (i = 0; i < 100; i++)
            a[i] = a[i-1] + b[i];
    }
    """

    def test_two_loops_extracted(self):
        samples = extract_loops_from_source(self.SOURCE)
        assert len(samples) == 2

    def test_labels_follow_pragmas(self):
        samples = extract_loops_from_source(self.SOURCE)
        assert samples[0].parallel and samples[0].category == "reduction"
        assert not samples[1].parallel and samples[1].category is None

    def test_loop_source_excludes_pragma(self):
        samples = extract_loops_from_source(self.SOURCE)
        assert "#pragma" not in samples[0].source
        assert samples[0].pragma is not None

    def test_loop_source_reparses(self):
        for s in extract_loops_from_source(self.SOURCE):
            assert s.ast() is not None

    def test_nested_loops_counted_once(self):
        src = """
        void f(void) {
            int i, j, x;
            for (i = 0; i < 4; i++)
                for (j = 0; j < 4; j++)
                    x++;
        }
        """
        samples = extract_loops_from_source(src)
        assert len(samples) == 1
        assert samples[0].nested

    def test_call_flag(self):
        src = "void f(void) { int i; for (i = 0; i < 9; i++) g(i); }"
        samples = extract_loops_from_source(src)
        assert samples[0].has_call

    def test_file_meta_propagates(self):
        samples = extract_loops_from_source(
            self.SOURCE, file_meta={"has_main": True}, file_id=7,
        )
        assert all(s.file_meta == {"has_main": True} for s in samples)
        assert all(s.file_id == 7 for s in samples)


    def test_loc_equals_loc_of_on_example_corpus(self):
        """``loc`` is counted from the one unparse of the loop; it must
        equal ``loc_of`` (a second unparse, pragmas cleared)."""
        from pathlib import Path

        from repro.cfront.unparse import loc_of
        from repro.dataset.extract import _outermost_loops

        corpus = Path(__file__).resolve().parents[2] / "examples" / "corpus"
        paths = sorted(corpus.glob("*.c"))
        assert paths
        for path in paths:
            source = path.read_text(encoding="utf-8")
            samples = extract_loops_from_source(source)
            loops = [loop for fn in parse_source(source).functions()
                     if fn.body is not None
                     for loop in _outermost_loops(fn.body)]
            assert len(loops) == len(samples) > 0
            for loop, sample in zip(loops, samples):
                loop.pragmas = []
                assert sample.loc == loc_of(loop) > 0

    def test_outermost_loops_equal_full_tree_visit(self):
        """Following only statements and stopping at the first loop
        finds exactly the loops a visit of every node finds."""
        from pathlib import Path

        from repro.cfront.nodes import LOOP_KINDS
        from repro.dataset.extract import _outermost_loops

        def full_visit(root):
            out = []

            def visit(node, inside_loop):
                is_loop = isinstance(node, LOOP_KINDS)
                if is_loop and not inside_loop:
                    out.append(node)
                for child in node.children():
                    visit(child, inside_loop or is_loop)

            visit(root, False)
            return out

        corpus = Path(__file__).resolve().parents[2] / "examples" / "corpus"
        sources = [p.read_text(encoding="utf-8")
                   for p in sorted(corpus.glob("*.c"))]
        for seed in (3, 11):
            _, files = CorpusGenerator(seed=seed).generate(scale=0.003)
            sources += [f.source for f in files]
        sources.append(
            "void f(int n, double *a) { int i, j;\n"
            "  switch (n) { case 1: for (i = 0; i < n; i++) a[i] = 0;\n"
            "  default: while (n--) { do { a[n]++; } while (0); } }\n"
            "  if (n) { L: for (;;) for (j = 0; j < 2; j++) break; }\n"
            "  else for (i = 0; i < n; i++) ;\n"
            "}\n")
        total = 0
        for source in sources:
            for fn in parse_source(source).functions():
                if fn.body is None:
                    continue
                loops = _outermost_loops(fn.body)
                assert [id(x) for x in loops] == \
                    [id(x) for x in full_visit(fn.body)]
                total += len(loops)
        assert total > 100


class TestSyntheticGenerator:
    def test_programs_compile_and_label(self):
        gen = SyntheticGenerator(seed=3)
        samples = gen.generate(n_reduction=5, n_doall=5, n_non_parallel=5)
        assert len(samples) == 15
        assert sum(s.parallel for s in samples) == 10

    def test_reduction_programs_labelled_reduction(self):
        gen = SyntheticGenerator(seed=4)
        samples = gen.generate(n_reduction=5, n_doall=0, n_non_parallel=0)
        assert all(s.category == "reduction" for s in samples)

    def test_loops_are_large(self):
        """Table 1: synthetic parallel loops average ~30 LOC."""
        gen = SyntheticGenerator(seed=5)
        samples = gen.generate(n_reduction=10, n_doall=10, n_non_parallel=0)
        avg = sum(s.loc for s in samples) / len(samples)
        assert avg > 12

    def test_origin_marked_synthetic(self):
        gen = SyntheticGenerator(seed=6)
        samples = gen.generate(1, 1, 1)
        assert all(s.origin == "synthetic" for s in samples)

    def test_ground_truth_against_oracle(self):
        gen = SyntheticGenerator(seed=7)
        for s in gen.generate(8, 8, 8):
            assert oracle_parallel(s.ast()) == s.parallel, s.source

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            SyntheticGenerator().render_loop("banana")

    def test_programs_have_main(self):
        gen = SyntheticGenerator(seed=8)
        program, meta = gen.render_program("reduction")
        assert meta["has_main"]
        tu = parse_source(program)
        assert tu.function("main") is not None


class TestCorpusGenerator:
    def test_generated_files_parse(self):
        gen = CorpusGenerator(seed=11)
        samples, files = gen.generate(scale=0.005)
        assert files and samples
        for f in files[:10]:
            parse_source(f.source)  # must not raise

    def test_category_counts_scale(self):
        gen = CorpusGenerator(seed=12)
        samples, _ = gen.generate(scale=0.01)
        parallel = [s for s in samples if s.parallel]
        non_parallel = [s for s in samples if not s.parallel]
        # Table 1 ratio: 18598 / 13972 ≈ 1.33
        ratio = len(parallel) / max(len(non_parallel), 1)
        assert 1.0 < ratio < 1.7

    def test_all_categories_present(self):
        gen = CorpusGenerator(seed=13)
        samples, _ = gen.generate(scale=0.01)
        cats = {s.category for s in samples if s.parallel}
        assert cats == {"reduction", "private", "simd", "target", "parallel"}

    def test_file_meta_rates(self):
        gen = CorpusGenerator(seed=14)
        _, files = gen.generate(scale=0.02)
        has_main = sum(f.meta["has_main"] for f in files) / len(files)
        assert has_main < 0.3  # most crawled files are library code

    def test_parallel_labels_sound_against_oracle(self):
        """Every pragma-annotated loop must be genuinely parallelisable
        (no false pragmas — the tools' zero-FP contract depends on it)."""
        gen = CorpusGenerator(seed=15)
        samples, _ = gen.generate(scale=0.004)
        bad = [
            s for s in samples
            if s.parallel and not oracle_parallel(s.ast())
        ]
        assert not bad, bad[0].source

    def test_unannotated_parallel_fraction(self):
        """A calibrated share of non-parallel-labelled loops is genuinely
        parallel (developer left it unannotated, paper §6.4); it must be
        near the configured fraction, and zero when disabled."""
        gen = CorpusGenerator(seed=16, unannotated_parallel_fraction=0.3)
        samples, _ = gen.generate(scale=0.01)
        negatives = [s for s in samples if not s.parallel]
        hidden = sum(1 for s in negatives if oracle_parallel(s.ast()))
        rate = hidden / len(negatives)
        assert 0.15 < rate < 0.45

        gen_off = CorpusGenerator(seed=16, unannotated_parallel_fraction=0.0)
        samples_off, _ = gen_off.generate(scale=0.004)
        negatives_off = [s for s in samples_off if not s.parallel]
        hidden_off = sum(1 for s in negatives_off if oracle_parallel(s.ast()))
        assert hidden_off == 0


class TestOMPSerial:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_omp_serial(DatasetConfig(scale=0.01, seed=2))

    def test_counts(self, dataset):
        assert len(dataset) > 200
        assert len(dataset.parallel_loops()) + len(dataset.non_parallel_loops()) \
            == len(dataset)

    def test_stats_rows_structure(self, dataset):
        rows = dataset.stats()
        assert any(r["pragma_type"] == "reduction" for r in rows)
        for row in rows:
            assert set(row) == {
                "source", "type", "pragma_type", "loops", "function_call",
                "nested_loops", "avg_loc",
            }

    def test_split_disjoint_and_file_level(self, dataset):
        train, test = dataset.train_test_split(test_fraction=0.25)
        assert len(train) + len(test) == len(dataset)
        train_files = {(s.origin, s.file_id) for s in train}
        test_files = {(s.origin, s.file_id) for s in test}
        assert not train_files & test_files

    def test_split_deterministic(self, dataset):
        a = dataset.train_test_split(seed=5)
        b = dataset.train_test_split(seed=5)
        assert [s.source for s in a[1]] == [s.source for s in b[1]]

    def test_save_load_round_trip(self, dataset, tmp_path):
        path = tmp_path / "ds.jsonl"
        dataset.save(path)
        again = OMPSerial.load(path)
        assert len(again) == len(dataset)
        assert again.samples[0].source == dataset.samples[0].source
        assert again.samples[0].parallel == dataset.samples[0].parallel

    def test_generation_deterministic(self):
        a = generate_omp_serial(DatasetConfig(scale=0.005, seed=9))
        b = generate_omp_serial(DatasetConfig(scale=0.005, seed=9))
        assert [s.source for s in a] == [s.source for s in b]

    def test_different_seeds_differ(self):
        a = generate_omp_serial(DatasetConfig(scale=0.005, seed=1))
        b = generate_omp_serial(DatasetConfig(scale=0.005, seed=2))
        assert [s.source for s in a] != [s.source for s in b]


class TestSampleIO:
    def test_jsonl_round_trip(self, tmp_path):
        samples = [
            LoopSample(source="for (i = 0; i < n; i++) s += 1;",
                       parallel=True, category="reduction",
                       pragma="pragma omp parallel for reduction(+:s)",
                       loc=2),
        ]
        path = tmp_path / "x.jsonl"
        save_jsonl(samples, path)
        loaded = load_jsonl(path)
        assert loaded[0].source == samples[0].source
        assert loaded[0].label == 1

    def test_label_property(self):
        assert LoopSample(source="", parallel=True).label == 1
        assert LoopSample(source="", parallel=False).label == 0
