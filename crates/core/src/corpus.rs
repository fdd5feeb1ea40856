//! Program corpus → labeled, normalized gadget corpus (Steps I–III end to
//! end), plus encoding into token ids over a trained word2vec vocabulary.

use crate::config::TrainConfig;
use crate::par::parallel_map;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sevuldet_analysis::ProgramAnalysis;
use sevuldet_dataset::{Origin, ProgramSample};
use sevuldet_embedding::{SkipGram, SkipGramConfig, Vocab};
use sevuldet_gadget::{
    assemble, covers_flaw, find_special_tokens, two_way_slice, Category, GadgetKind, Normalizer,
    SliceConfig,
};
use sevuldet_nn::Tensor;
use std::collections::HashSet;

/// One labeled, normalized gadget ready for embedding.
#[derive(Debug, Clone)]
pub struct GadgetItem {
    /// Normalized surface tokens.
    pub tokens: Vec<String>,
    /// Ground-truth label.
    pub label: bool,
    /// Special-token category.
    pub category: Category,
    /// Originating program id.
    pub program_id: String,
    /// Line of the seeding special token.
    pub key_line: u32,
    /// Corpus of origin.
    pub origin: Origin,
}

/// A gadget corpus.
#[derive(Debug, Clone, Default)]
pub struct GadgetCorpus {
    /// All gadget items.
    pub items: Vec<GadgetItem>,
}

impl GadgetCorpus {
    /// Number of gadgets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of vulnerable gadgets.
    pub fn vulnerable(&self) -> usize {
        self.items.iter().filter(|i| i.label).count()
    }

    /// Indices of gadgets of a category (`None` = all).
    pub fn indices_of(&self, category: Option<Category>) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&i| category.is_none_or(|c| self.items[i].category == c))
            .collect()
    }
}

/// Extracts the gadget corpus of a program set: Step I (slice + assemble,
/// classic or path-sensitive), Step II (manifest labeling), Step III
/// (normalization). Exact `(token stream, label)` duplicates are merged,
/// like the paper's de-duplication — conflicting-label duplicates (the
/// Fig.-1 pairs) are *kept*, preserving the ambiguity that pins classifiers
/// at 50% on them.
pub fn extract_gadgets(
    samples: &[ProgramSample],
    kind: GadgetKind,
    slice: &SliceConfig,
) -> GadgetCorpus {
    extract_gadgets_jobs(samples, kind, slice, 1)
}

/// [`extract_gadgets`] with an explicit worker-thread count. The per-program
/// work (parse, analyze, slice, label, normalize) runs in parallel; the
/// duplicate merge walks the per-program results **in input order**, so the
/// corpus is identical for every `jobs` value.
pub fn extract_gadgets_jobs(
    samples: &[ProgramSample],
    kind: GadgetKind,
    slice: &SliceConfig,
    jobs: usize,
) -> GadgetCorpus {
    let _t = sevuldet_trace::span!("core.extract");
    let per_sample: Vec<Vec<(String, GadgetItem)>> = parallel_map(samples, jobs, |_, sample| {
        let mut items = Vec::new();
        let Ok(program) = sevuldet_lang::parse(&sample.source) else {
            return items;
        };
        let analysis = ProgramAnalysis::analyze(&program);
        for st in &find_special_tokens(&program, &analysis) {
            let s = two_way_slice(&analysis, &st.func, st.node, slice);
            let gadget = assemble(&analysis, st, kind, &s);
            if gadget.lines.is_empty() {
                continue;
            }
            let tokens = Normalizer::normalize_view(&gadget);
            items.push((
                tokens.join(" "),
                GadgetItem {
                    tokens,
                    label: covers_flaw(gadget.stmt_locations(), &sample.flaw_lines),
                    category: st.category,
                    program_id: sample.id.clone(),
                    key_line: st.line,
                    origin: sample.origin,
                },
            ));
        }
        items
    });
    let mut corpus = GadgetCorpus::default();
    // Dedup key includes the category: the paper builds *per-category*
    // datasets, so the same statement sequence seeded by an FC token and a
    // PU token counts once in each category.
    let mut seen: HashSet<(Category, String, bool)> = HashSet::new();
    for items in per_sample {
        for (joined, item) in items {
            if seen.insert((item.category, joined, item.label)) {
                corpus.items.push(item);
            }
        }
    }
    sevuldet_trace::counter("gadgets", corpus.items.len() as f64);
    corpus
}

/// A gadget corpus encoded to token ids, with its vocabulary and word2vec
/// embedding table.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// Token-id sequences, parallel to `corpus.items`.
    pub ids: Vec<Vec<usize>>,
    /// The vocabulary.
    pub vocab: Vocab,
    /// The `(V × D)` pre-trained embedding table.
    pub table: Tensor,
}

/// Trains word2vec on the corpus and encodes every gadget (Step IV's
/// pre-trained embedding).
pub fn encode(corpus: &GadgetCorpus, config: &TrainConfig) -> Encoded {
    let _t = sevuldet_trace::span!("core.encode");
    let token_refs: Vec<&[String]> = corpus.items.iter().map(|i| i.tokens.as_slice()).collect();
    let vocab = Vocab::build(token_refs.iter().copied(), 1);
    // Per-gadget id lookup is embarrassingly parallel; outputs come back in
    // corpus order, so the encoding is independent of `config.jobs`.
    let sequences: Vec<Vec<usize>> =
        parallel_map(&corpus.items, config.jobs, |_, i| vocab.encode(&i.tokens));
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x77);
    let sg_cfg = SkipGramConfig {
        dim: config.embed_dim,
        epochs: config.w2v_epochs,
        ..SkipGramConfig::default()
    };
    let model = SkipGram::train(&vocab, &sequences, &sg_cfg, &mut rng);
    let t = model.table();
    let table = Tensor::from_vec(&[t.rows, t.cols], t.data);
    Encoded {
        ids: sequences,
        vocab,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevuldet_dataset::{sard, SardConfig};

    fn tiny_corpus() -> Vec<ProgramSample> {
        sard::generate(&SardConfig {
            per_category: 6,
            ..SardConfig::default()
        })
    }

    #[test]
    fn extraction_produces_labeled_gadgets_in_all_categories() {
        let samples = tiny_corpus();
        let corpus = extract_gadgets(&samples, GadgetKind::PathSensitive, &SliceConfig::default());
        assert!(corpus.len() > samples.len(), "several gadgets per program");
        assert!(corpus.vulnerable() > 0);
        assert!(corpus.vulnerable() < corpus.len());
        for c in Category::ALL {
            assert!(
                !corpus.indices_of(Some(c)).is_empty(),
                "category {c} missing"
            );
        }
    }

    #[test]
    fn gadget_tokens_are_normalized() {
        let corpus = extract_gadgets(
            &tiny_corpus(),
            GadgetKind::PathSensitive,
            &SliceConfig::default(),
        );
        let has_var = corpus
            .items
            .iter()
            .any(|i| i.tokens.iter().any(|t| t.starts_with("var")));
        assert!(has_var, "normalized variable names expected");
    }

    #[test]
    fn path_sensitive_gadgets_never_lose_statements() {
        // Pairwise invariant: for the same special token, the path-sensitive
        // gadget's line set is a superset of the classic gadget's (Algorithm
        // 1 only *adds* range delimiters).
        use sevuldet_analysis::ProgramAnalysis;
        use sevuldet_gadget::{build_gadget, find_special_tokens};
        for sample in tiny_corpus().iter().take(12) {
            let program = sevuldet_lang::parse(&sample.source).unwrap();
            let analysis = ProgramAnalysis::analyze(&program);
            for st in find_special_tokens(&program, &analysis) {
                let cg = build_gadget(
                    &program,
                    &analysis,
                    &st,
                    GadgetKind::Classic,
                    &SliceConfig::default(),
                );
                let ps = build_gadget(
                    &program,
                    &analysis,
                    &st,
                    GadgetKind::PathSensitive,
                    &SliceConfig::default(),
                );
                assert!(ps.lines.len() >= cg.lines.len());
                let ps_lines: std::collections::HashSet<(String, u32)> =
                    ps.lines.iter().map(|l| (l.func.clone(), l.line)).collect();
                for l in &cg.lines {
                    assert!(
                        ps_lines.contains(&(l.func.clone(), l.line)),
                        "PS gadget must cover every classic line ({}:{})",
                        l.func,
                        l.line
                    );
                }
            }
        }
    }

    #[test]
    fn extraction_is_identical_for_every_job_count() {
        let samples = tiny_corpus();
        let slice = SliceConfig::default();
        let base = extract_gadgets_jobs(&samples, GadgetKind::PathSensitive, &slice, 1);
        for jobs in [2, 4, 7] {
            let par = extract_gadgets_jobs(&samples, GadgetKind::PathSensitive, &slice, jobs);
            assert_eq!(par.len(), base.len(), "jobs={jobs}");
            for (a, b) in par.items.iter().zip(&base.items) {
                assert_eq!(a.tokens, b.tokens);
                assert_eq!(a.label, b.label);
                assert_eq!(a.category, b.category);
                assert_eq!(a.program_id, b.program_id);
            }
        }
    }

    #[test]
    fn encoding_is_identical_for_every_job_count() {
        let corpus = extract_gadgets(
            &tiny_corpus(),
            GadgetKind::PathSensitive,
            &SliceConfig::default(),
        );
        let cfg = TrainConfig {
            embed_dim: 12,
            w2v_epochs: 1,
            ..TrainConfig::quick()
        };
        let base = encode(&corpus, &cfg);
        let par = encode(&corpus, &TrainConfig { jobs: 4, ..cfg });
        assert_eq!(base.ids, par.ids);
        assert_eq!(base.table.data(), par.table.data());
    }

    #[test]
    fn encode_builds_consistent_ids() {
        let corpus = extract_gadgets(
            &tiny_corpus(),
            GadgetKind::PathSensitive,
            &SliceConfig::default(),
        );
        let enc = encode(
            &corpus,
            &TrainConfig {
                embed_dim: 12,
                w2v_epochs: 1,
                ..TrainConfig::quick()
            },
        );
        assert_eq!(enc.ids.len(), corpus.len());
        assert_eq!(enc.table.cols(), 12);
        assert_eq!(enc.table.rows(), enc.vocab.len());
        for (ids, item) in enc.ids.iter().zip(&corpus.items) {
            assert_eq!(ids.len(), item.tokens.len());
        }
    }
}
