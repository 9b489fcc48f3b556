use crate::optim::Param;
use crate::rng::Rng;
use crate::{init, ops, Result, Tensor, TensorError};

/// Token embedding table `W: [vocab, hidden]`.
///
/// The forward pass is a row gather; the backward pass scatter-adds output
/// gradients into the gathered rows. This is the paper's *input vocabulary
/// layer* (Appendix C): its compute is negligible (`3bsh` FLOPs) but its
/// parameter memory `hV` is as large as the output layer's.
#[derive(Debug, Clone)]
pub struct Embedding {
    weight: Param,
}

/// Cache for [`Embedding::forward`]: the gathered token ids.
#[derive(Debug, Clone)]
pub struct EmbeddingCache {
    ids: Vec<usize>,
}

impl Embedding {
    /// Creates an embedding table with GPT-style initialization.
    pub fn new(rng: &mut impl Rng, vocab: usize, hidden: usize) -> Self {
        Embedding {
            weight: Param::new(init::gpt(rng, vocab, hidden)),
        }
    }

    /// Wraps an existing weight tensor (used for sharding).
    pub fn from_weight(weight: Tensor) -> Self {
        Embedding {
            weight: Param::new(weight),
        }
    }

    /// Vocabulary size (number of rows).
    pub fn vocab(&self) -> usize {
        self.weight.value().rows()
    }

    /// Hidden width (number of columns).
    pub fn hidden(&self) -> usize {
        self.weight.value().cols()
    }

    /// Immutable view of the embedding matrix.
    pub fn weight(&self) -> &Tensor {
        self.weight.value()
    }

    /// Gathers the embedding rows for `ids`, producing `[ids.len(), hidden]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if any id is `>= vocab`.
    pub fn forward(&self, ids: &[usize]) -> Result<(Tensor, EmbeddingCache)> {
        let h = self.hidden();
        let mut out = Tensor::zeros(ids.len(), h);
        for (r, &id) in ids.iter().enumerate() {
            if id >= self.vocab() {
                return Err(TensorError::OutOfBounds {
                    op: "embedding",
                    index: id,
                    bound: self.vocab(),
                });
            }
            out.row_mut(r).copy_from_slice(self.weight.value().row(id));
        }
        Ok((out, EmbeddingCache { ids: ids.to_vec() }))
    }

    /// Scatter-adds `dy` rows into the weight gradient, touching only the
    /// rows of the cached ids ([`ops::scatter_add_rows`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `dy` does not have one row
    /// per cached id and `hidden` columns.
    pub fn backward(&mut self, cache: &EmbeddingCache, dy: &Tensor) -> Result<()> {
        ops::scatter_add_rows(self.weight.grad_mut(), 0, &cache.ids, dy)
    }

    /// Mutable references to the trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Embedding {
        Embedding::from_weight(Tensor::from_vec(3, 2, vec![0., 1., 10., 11., 20., 21.]).unwrap())
    }

    #[test]
    fn forward_gathers_rows() {
        let emb = table();
        let (y, _) = emb.forward(&[2, 0, 2]).unwrap();
        assert_eq!(y.data(), &[20., 21., 0., 1., 20., 21.]);
    }

    #[test]
    fn forward_rejects_out_of_range() {
        assert!(table().forward(&[3]).is_err());
    }

    #[test]
    fn backward_scatter_adds_duplicates() {
        let mut emb = table();
        let (_, cache) = emb.forward(&[1, 1]).unwrap();
        let dy = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]).unwrap();
        emb.backward(&cache, &dy).unwrap();
        let g = emb.params_mut()[0].grad().clone();
        assert_eq!(g.row(0), &[0., 0.]);
        assert_eq!(g.row(1), &[4., 6.]);
        assert_eq!(g.row(2), &[0., 0.]);
    }

    #[test]
    fn backward_is_bitwise_the_dense_scatter() {
        // The dense scatter the sparse one replaced, as the oracle: ids
        // repeated three and four times, a `NaN`, both infinities and a
        // `−0.0` in `dy`, into a gradient holding earlier microbatches.
        let (vocab, h) = (12, 3);
        let mut emb = Embedding::new(&mut crate::init::seeded_rng(41), vocab, h);
        let ids = [5, 11, 5, 0, 5, 11, 1, 11, 5, 4];
        let (_, cache) = emb.forward(&ids).unwrap();
        let mut oracle = Tensor::zeros(vocab, h);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for mb in 0..3 {
            let mut dy =
                crate::init::normal(&mut crate::init::seeded_rng(42 + mb), ids.len(), h, 1.0);
            dy.row_mut(0)[0] = f32::NAN;
            dy.row_mut(1)[1] = f32::INFINITY;
            dy.row_mut(5)[1] = f32::NEG_INFINITY;
            dy.row_mut(2)[2] = -0.0;
            emb.backward(&cache, &dy).unwrap();
            let mut dw = Tensor::zeros(vocab, h);
            for (r, &id) in ids.iter().enumerate() {
                for (d, &g) in dw.row_mut(id).iter_mut().zip(dy.row(r)) {
                    *d += g;
                }
            }
            oracle.add_assign(&dw).unwrap();
            assert_eq!(bits(emb.params_mut()[0].grad()), bits(&oracle), "mb={mb}");
        }
    }

    #[test]
    fn backward_validates_shape() {
        let mut emb = table();
        let (_, cache) = emb.forward(&[0]).unwrap();
        assert!(emb.backward(&cache, &Tensor::zeros(2, 2)).is_err());
    }
}
