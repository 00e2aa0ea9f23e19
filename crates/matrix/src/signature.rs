//! Collision-checked row signatures.
//!
//! The exact-duplicate fast path of the custom algorithm groups identical
//! rows by a content hash — the Rust analogue of the pandas `groupby` trick
//! used in the paper's notebook. A signature is 128 bits built from two
//! independent 64-bit FNV-1a streams over the row's ascending column
//! indices ([`hash_indices`]), so hashing a matrix costs O(nnz) whatever
//! its width. Accidental collisions are negligible; nevertheless
//! [`SignatureIndex::groups_verified`] re-checks candidate groups
//! bit-for-bit, making the result *exact* regardless of hash quality (the
//! paper stresses that the custom algorithm is fully deterministic and
//! misses nothing).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// A 128-bit content signature of a matrix row.
///
/// Equal rows always produce equal signatures. Distinct rows produce equal
/// signatures only on a 2⁻¹²⁸-scale hash collision, and all consumers in
/// this workspace verify candidate groups before reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowSignature(pub u128);

const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME_A: u64 = 0x0000_0100_0000_01b3;
// Second stream: different offset basis (split of SHA-256 initial values) to
// decorrelate the two 64-bit halves.
const FNV_OFFSET_B: u64 = 0x6a09_e667_bb67_ae85;
const FNV_PRIME_B: u64 = 0x0000_0100_0000_01b3;

/// The 128-bit FNV pair over a `u64` stream: every value is fed
/// little-endian byte by byte into both 64-bit streams. Dense rows fold
/// their `iter_ones()` through it, so their signatures equal
/// [`hash_indices`] of the same row without collecting the indices.
pub(crate) fn fnv_pair(values: impl IntoIterator<Item = u64>) -> RowSignature {
    let mut a = FNV_OFFSET_A;
    let mut b = FNV_OFFSET_B;
    for w in values {
        for byte in w.to_le_bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME_A);
            b = (b ^ u64::from(byte).rotate_left(3)).wrapping_mul(FNV_PRIME_B);
        }
    }
    RowSignature((u128::from(a) << 64) | u128::from(b))
}

/// Hashes a slice of `u64` words through the 128-bit FNV pair.
///
/// This is the content hash behind `audit::fingerprint` in
/// `rolediet-core`, whose persisted finding keys depend on its exact
/// output. Row signatures use [`hash_indices`], which is the same
/// hash over the row's column indices.
pub fn hash_words(words: &[u64]) -> RowSignature {
    fnv_pair(words.iter().copied())
}

/// The row signature: hashes a strictly increasing list of set-bit
/// indices, each as a `u64`, through the 128-bit FNV pair.
///
/// The cost is O(nnz) and does not depend on the row width, so a sparse
/// row of a 350k-column matrix hashes only its set bits, and widening a
/// matrix leaves every signature unchanged. The value equals
/// [`hash_words`] over the indices widened to `u64`.
pub fn hash_indices(indices: &[u32]) -> RowSignature {
    fnv_pair(indices.iter().map(|&c| u64::from(c)))
}

/// Groups row indices by signature.
///
/// # Examples
///
/// ```
/// use rolediet_matrix::{BitMatrix, RowMatrix, SignatureIndex};
///
/// let m = BitMatrix::from_rows_of_indices(4, 3, &[
///     vec![0], vec![1, 2], vec![0], vec![1, 2],
/// ]).unwrap();
/// let idx = SignatureIndex::build(&m);
/// let groups = idx.groups_verified(&m);
/// assert_eq!(groups, vec![vec![0, 2], vec![1, 3]]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SignatureIndex {
    buckets: HashMap<RowSignature, Vec<usize>>,
}

impl SignatureIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the index over all rows of a matrix.
    pub fn build<M: crate::RowMatrix>(matrix: &M) -> Self {
        let mut idx = SignatureIndex::new();
        for i in 0..matrix.rows() {
            idx.insert(matrix.row_signature(i), i);
        }
        idx
    }

    /// Like [`build`](Self::build), with the row hashing — the expensive
    /// part — split over `threads` workers via
    /// [`parallel`](crate::parallel). Signatures are inserted sequentially
    /// in row order afterwards, so bucket member order (and therefore
    /// every derived group list) is identical to `build` for every thread
    /// count.
    pub fn build_with<M: crate::RowMatrix + Sync>(matrix: &M, threads: usize) -> Self {
        let signatures = crate::parallel::par_map_rows(matrix.rows(), threads, |range| {
            range.map(|i| matrix.row_signature(i)).collect()
        });
        let mut idx = SignatureIndex::new();
        for (i, sig) in signatures.into_iter().enumerate() {
            idx.insert(sig, i);
        }
        idx
    }

    /// Inserts one `(signature, row)` pair.
    pub fn insert(&mut self, sig: RowSignature, row: usize) {
        self.buckets.entry(sig).or_default().push(row);
    }

    /// Number of distinct signatures.
    pub fn distinct(&self) -> usize {
        self.buckets.len()
    }

    /// Candidate duplicate groups (≥ 2 members, sorted by first member).
    ///
    /// Groups are *candidates*: members share a signature but have not been
    /// compared bit-for-bit. Use [`groups_verified`] for exact results.
    ///
    /// [`groups_verified`]: SignatureIndex::groups_verified
    pub fn candidate_groups(&self) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = self
            .buckets
            .values()
            .filter(|v| v.len() >= 2)
            .map(|v| {
                let mut v = v.clone();
                v.sort_unstable();
                v
            })
            .collect();
        groups.sort_unstable_by_key(|g| g[0]);
        groups
    }

    /// Exact duplicate groups: candidates are re-verified against the
    /// matrix, so a (vanishingly unlikely) hash collision splits into the
    /// correct sub-groups rather than producing a wrong merge.
    pub fn groups_verified<M: crate::RowMatrix>(&self, matrix: &M) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for group in self.candidate_groups() {
            let mut remaining = group;
            while remaining.len() >= 2 {
                let pivot = remaining[0];
                let (same, diff): (Vec<usize>, Vec<usize>) = remaining
                    .into_iter()
                    .partition(|&r| r == pivot || matrix.rows_equal(pivot, r));
                if same.len() >= 2 {
                    out.push(same);
                }
                remaining = diff;
            }
        }
        out.sort_unstable_by_key(|g| g[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::BitMatrix;
    use crate::sparse::CsrMatrix;
    use crate::RowMatrix;

    #[test]
    fn hash_words_distinguishes_rows() {
        assert_ne!(hash_words(&[1]), hash_words(&[2]));
        assert_ne!(hash_words(&[1, 0]), hash_words(&[0, 1]));
        assert_eq!(hash_words(&[7, 9]), hash_words(&[7, 9]));
    }

    #[test]
    fn signature_is_width_independent() {
        let rows = vec![vec![0usize, 64, 129], vec![], vec![7]];
        let narrow = CsrMatrix::from_rows_of_indices(3, 130, &rows).unwrap();
        let wide = CsrMatrix::from_rows_of_indices(3, u32::MAX as usize, &rows).unwrap();
        for i in 0..3 {
            assert_eq!(narrow.row_signature(i), wide.row_signature(i), "row {i}");
        }
        // The signature is the word hash of the index stream.
        assert_eq!(hash_indices(&[0, 64, 129]), hash_words(&[0, 64, 129]));
        assert_eq!(hash_indices(&[]), hash_words(&[]));
        assert_ne!(narrow.row_signature(0), narrow.row_signature(1));
    }

    #[test]
    fn dense_and_sparse_signatures_agree() {
        let rows = vec![vec![0usize, 65, 100], vec![], vec![0, 65, 100]];
        let d = BitMatrix::from_rows_of_indices(3, 128, &rows).unwrap();
        let s = CsrMatrix::from_rows_of_indices(3, 128, &rows).unwrap();
        for i in 0..3 {
            assert_eq!(d.row_signature(i), s.row_signature(i));
        }
    }

    #[test]
    fn groups_verified_finds_all_duplicate_groups() {
        let m = BitMatrix::from_rows_of_indices(
            6,
            4,
            &[vec![0], vec![1], vec![0], vec![2, 3], vec![1], vec![0]],
        )
        .unwrap();
        let groups = SignatureIndex::build(&m).groups_verified(&m);
        assert_eq!(groups, vec![vec![0, 2, 5], vec![1, 4]]);
    }

    #[test]
    fn collision_is_split_by_verification() {
        // Force a collision by inserting two different rows under one sig.
        let m =
            BitMatrix::from_rows_of_indices(4, 4, &[vec![0], vec![1], vec![0], vec![1]]).unwrap();
        let mut idx = SignatureIndex::new();
        let fake = RowSignature(42);
        for i in 0..4 {
            idx.insert(fake, i);
        }
        assert_eq!(idx.candidate_groups(), vec![vec![0, 1, 2, 3]]);
        let groups = idx.groups_verified(&m);
        assert_eq!(groups, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn parallel_build_groups_identically() {
        let m = BitMatrix::from_rows_of_indices(
            7,
            4,
            &[
                vec![0],
                vec![1],
                vec![0],
                vec![2, 3],
                vec![1],
                vec![0],
                vec![],
            ],
        )
        .unwrap();
        let seq = SignatureIndex::build(&m);
        for threads in [1, 2, 3, 8] {
            let par = SignatureIndex::build_with(&m, threads);
            assert_eq!(par.distinct(), seq.distinct(), "threads={threads}");
            assert_eq!(par.candidate_groups(), seq.candidate_groups());
            assert_eq!(par.groups_verified(&m), seq.groups_verified(&m));
        }
    }

    #[test]
    fn no_groups_when_all_rows_unique() {
        let m = BitMatrix::from_rows_of_indices(3, 4, &[vec![0], vec![1], vec![2]]).unwrap();
        let idx = SignatureIndex::build(&m);
        assert_eq!(idx.distinct(), 3);
        assert!(idx.groups_verified(&m).is_empty());
    }

    #[test]
    fn empty_matrix() {
        let m = BitMatrix::zeros(0, 0);
        let idx = SignatureIndex::build(&m);
        assert_eq!(idx.distinct(), 0);
        assert!(idx.groups_verified(&m).is_empty());
    }
}
