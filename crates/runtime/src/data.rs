//! Deterministic synthetic corpora.
//!
//! Substitutes the paper's customized C4 dataset: the convergence
//! *equivalence* between implementations (Appendix E) is data-independent
//! as long as both sides see identical tokens, and a structured synthetic
//! stream gives the model something learnable so the loss actually falls.

use crate::model::TinyConfig;
use vp_tensor::init::seeded_rng;
use vp_tensor::rng::Rng;

/// One microbatch: input token ids and next-token labels, both `seq_len`
/// long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Microbatch {
    /// Input token ids.
    pub tokens: Vec<usize>,
    /// Next-token labels (`tokens` shifted by one).
    pub labels: Vec<usize>,
}

/// A deterministic stream of training microbatches with learnable
/// structure: each token is an affine function of the previous one plus
/// occasional noise, so a small model can reduce the loss well below
/// `ln(V)`.
#[derive(Debug, Clone)]
pub struct SyntheticCorpus {
    vocab: usize,
    seq_len: usize,
    seed: u64,
}

impl SyntheticCorpus {
    /// Creates a corpus over `vocab` tokens with `seq_len`-long sequences.
    ///
    /// # Panics
    ///
    /// Panics if `vocab < 2` or `seq_len == 0`.
    pub fn new(vocab: usize, seq_len: usize, seed: u64) -> Self {
        assert!(vocab >= 2, "vocabulary must have at least two tokens");
        assert!(seq_len > 0, "sequences must be non-empty");
        SyntheticCorpus {
            vocab,
            seq_len,
            seed,
        }
    }

    /// The microbatch at global index `index` (iteration-major). Pure
    /// function of `(seed, index)`, so every device generates identical
    /// data without communication.
    pub fn microbatch(&self, index: u64) -> Microbatch {
        let mut rng = seeded_rng(self.seed ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let mut stream = Vec::with_capacity(self.seq_len + 1);
        let mut tok = rng.gen_range(0..self.vocab);
        stream.push(tok);
        for _ in 0..self.seq_len {
            // Mostly-deterministic transition with 10% uniform noise.
            tok = if rng.gen_range(0..10usize) == 0 {
                rng.gen_range(0..self.vocab)
            } else {
                (tok * 5 + 7) % self.vocab
            };
            stream.push(tok);
        }
        Microbatch {
            tokens: stream[..self.seq_len].to_vec(),
            labels: stream[1..].to_vec(),
        }
    }

    /// All microbatches of one iteration.
    pub fn iteration(&self, iter: u64, microbatches: usize) -> Vec<Microbatch> {
        (0..microbatches as u64)
            .map(|k| self.microbatch(iter * microbatches as u64 + k))
            .collect()
    }
}

/// Where the trainers get their microbatches: the built-in synthetic
/// stream, or a fixed list (e.g. BPE-tokenized text packed by `vp-data`),
/// consumed cyclically.
#[derive(Debug, Clone)]
pub enum DataSource {
    /// The deterministic synthetic corpus.
    Synthetic(SyntheticCorpus),
    /// A pre-tokenized sample list, iterated in order and wrapped around.
    Fixed(std::sync::Arc<Vec<Microbatch>>),
}

impl DataSource {
    /// The synthetic corpus matching `config`'s vocabulary, sequence length
    /// and seed — the stream [`crate::train_reference`] trains on.
    pub fn synthetic(config: &TinyConfig) -> Self {
        DataSource::Synthetic(SyntheticCorpus::new(
            config.vocab,
            config.seq_len,
            config.seed,
        ))
    }

    /// The microbatches of one iteration.
    ///
    /// # Panics
    ///
    /// Panics if a fixed source is empty.
    pub fn iteration(&self, iter: u64, microbatches: usize) -> Vec<Microbatch> {
        match self {
            DataSource::Synthetic(c) => c.iteration(iter, microbatches),
            DataSource::Fixed(samples) => {
                assert!(!samples.is_empty(), "fixed data source must hold samples");
                (0..microbatches as u64)
                    .map(|k| {
                        let idx = (iter * microbatches as u64 + k) as usize % samples.len();
                        samples[idx].clone()
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let c = SyntheticCorpus::new(64, 8, 42);
        assert_eq!(c.microbatch(3), c.microbatch(3));
        assert_ne!(c.microbatch(3), c.microbatch(4));
    }

    #[test]
    fn labels_are_shifted_tokens() {
        let c = SyntheticCorpus::new(64, 8, 1);
        let mb = c.microbatch(0);
        assert_eq!(mb.tokens.len(), 8);
        assert_eq!(mb.labels.len(), 8);
        // The shared interior must match.
        assert_eq!(&mb.tokens[1..], &mb.labels[..7]);
    }

    #[test]
    fn tokens_in_range() {
        let c = SyntheticCorpus::new(13, 32, 7);
        for i in 0..20 {
            let mb = c.microbatch(i);
            assert!(mb.tokens.iter().all(|&t| t < 13));
            assert!(mb.labels.iter().all(|&t| t < 13));
        }
    }

    #[test]
    fn fixed_source_wraps_around() {
        let samples = vec![
            Microbatch {
                tokens: vec![1],
                labels: vec![2],
            },
            Microbatch {
                tokens: vec![3],
                labels: vec![4],
            },
            Microbatch {
                tokens: vec![5],
                labels: vec![6],
            },
        ];
        let src = DataSource::Fixed(std::sync::Arc::new(samples.clone()));
        let it0 = src.iteration(0, 2);
        let it1 = src.iteration(1, 2);
        assert_eq!(it0, vec![samples[0].clone(), samples[1].clone()]);
        assert_eq!(it1, vec![samples[2].clone(), samples[0].clone()]);
    }

    #[test]
    fn transitions_are_mostly_predictable() {
        let c = SyntheticCorpus::new(97, 256, 3);
        let mb = c.microbatch(0);
        let predictable = mb
            .tokens
            .iter()
            .zip(&mb.labels)
            .filter(|(&t, &l)| l == (t * 5 + 7) % 97)
            .count();
        assert!(predictable > 200, "only {predictable}/256 predictable");
    }
}
