//! Partitioned (parallel) variants of the five snapshot operators.
//!
//! Each `*_par` kernel is observationally identical to its sequential
//! twin — same result, same errors — and differs only in how the work is
//! scheduled: the sorted run is split into contiguous index ranges (an
//! O(1) slice operation — no tree walk, no per-tuple collection), the
//! ranges are evaluated on scoped worker threads, and the per-range
//! results are concatenated **in range order**.
//!
//! Why the merge is deterministic:
//!
//! * σ and − filter each input tuple independently, so each range yields
//!   a sorted run disjoint from (and entirely below) the next range's
//!   run; concatenating runs in order is exactly the sequential scan.
//! * × chunks the *left* operand: distinct same-arity left tuples
//!   `l₁ < l₂` concatenate to `l₁·x < l₂·y` for every `x`, `y`, so the
//!   per-chunk sub-products are again disjoint sorted runs.
//! * ∪ and − (two-operand merges) split both runs at aligned pivots
//!   ([`txtime_exec::aligned_parts`]): the left run is cut at even
//!   indices and the right run at the `partition_point` of each pivot
//!   tuple, so every part sees exactly the tuples of one disjoint key
//!   interval and the concatenated merge outputs are the sequential
//!   merge.
//! * π re-sorts the concatenated projection (unless the projection is an
//!   order-preserving prefix), so the result does not depend on chunking.
//!
//! A one-thread pool evaluates every kernel inline on the calling thread
//! (see [`ExecPool::map_chunks`]) as a single chunk, which
//! [`txtime_exec::concat`] hands back without a copy — the sequential
//! kernel's cost, plus the per-operator counter.

use txtime_exec::{aligned_parts, concat, ExecPool, OpKind};

use crate::ops::merge::{merge_difference, merge_union};
use crate::ops::project::is_identity_prefix;
use crate::predicate::Predicate;
use crate::state::SnapshotState;
use crate::tuple::Tuple;
use crate::Result;

/// Minimum tuples per chunk for the tuple-at-a-time kernels; below
/// 2 × this, spawn overhead beats the work. Sourced from the shared
/// per-kernel heuristic so the CLI/engine and kernels agree.
pub(crate) const SET_GRAIN: usize = OpKind::Select.min_chunk();

/// Minimum output *pairs* per chunk for the product kernel (its per-item
/// cost scales with the right operand).
pub(crate) const PRODUCT_PAIR_GRAIN: usize = OpKind::Product.min_chunk();

impl SnapshotState {
    /// [`SnapshotState::select`] evaluated over partitioned slice ranges.
    pub fn select_par(&self, predicate: &Predicate, pool: &ExecPool) -> Result<SnapshotState> {
        let compiled = predicate.compile(self.schema())?;
        let runs = pool.map_chunks(OpKind::Select, self.run(), SET_GRAIN, |chunk| {
            chunk
                .iter()
                .filter(|t| compiled.eval(t))
                .cloned()
                .collect::<Vec<Tuple>>()
        });
        if runs.iter().map(Vec::len).sum::<usize>() == self.len() {
            return Ok(self.clone());
        }
        // Disjoint ascending runs: in-order concatenation is sorted.
        Ok(SnapshotState::from_sorted_vec(
            self.schema().clone(),
            concat(runs),
        ))
    }

    /// [`SnapshotState::project`] evaluated over partitioned slice ranges.
    pub fn project_par(&self, attrs: &[impl AsRef<str>], pool: &ExecPool) -> Result<SnapshotState> {
        let (schema, indices) = self.schema().project(attrs)?;
        let mut out = concat(
            pool.map_chunks(OpKind::Project, self.run(), SET_GRAIN, |chunk| {
                chunk
                    .iter()
                    .map(|t| t.project(&indices))
                    .collect::<Vec<Tuple>>()
            }),
        );
        if is_identity_prefix(&indices) {
            // In-order concatenation of an order-preserving projection is
            // already sorted; only adjacent duplicates can occur.
            out.dedup();
            Ok(SnapshotState::from_sorted_vec(schema, out))
        } else {
            Ok(SnapshotState::from_unsorted_vec(schema, out))
        }
    }

    /// [`SnapshotState::product`] with the left operand partitioned.
    pub fn product_par(&self, other: &SnapshotState, pool: &ExecPool) -> Result<SnapshotState> {
        let schema = self.schema().product(other.schema())?;
        let grain = (PRODUCT_PAIR_GRAIN / other.len().max(1)).max(1);
        let runs = pool.map_chunks(OpKind::Product, self.run(), grain, |chunk| {
            let mut pairs = Vec::with_capacity(chunk.len() * other.len());
            for l in chunk {
                for r in other.iter() {
                    pairs.push(l.concat(r));
                }
            }
            pairs
        });
        Ok(SnapshotState::from_sorted_vec(schema, concat(runs)))
    }

    /// [`SnapshotState::union`] as a merge over aligned partitions of
    /// both runs.
    pub fn union_par(&self, other: &SnapshotState, pool: &ExecPool) -> Result<SnapshotState> {
        self.schema().require_union_compatible(other.schema())?;
        if self.is_empty() || other.is_empty() || self.shares_run(other) {
            // Sequential identity shortcuts (O(1) Arc reuse).
            return self.union(other);
        }
        let want = pool.chunks_for(self.len() + other.len(), SET_GRAIN);
        let parts = aligned_parts(self.run(), other.run(), want, |t| t);
        let runs = pool.map_chunks(OpKind::Union, &parts, 1, |chunk| {
            concat(
                chunk
                    .iter()
                    .map(|(lr, rr)| merge_union(&self.run()[lr.clone()], &other.run()[rr.clone()]))
                    .collect(),
            )
        });
        let total: usize = runs.iter().map(Vec::len).sum();
        if total == self.len() {
            // other ⊆ self: share the left run, like the sequential path.
            return Ok(self.clone());
        }
        if total == other.len() {
            return Ok(SnapshotState::from_shared(
                self.schema().clone(),
                other.shared_run().clone(),
            ));
        }
        Ok(SnapshotState::from_sorted_vec(
            self.schema().clone(),
            concat(runs),
        ))
    }

    /// [`SnapshotState::difference`] as a merge over aligned partitions
    /// of both runs.
    pub fn difference_par(&self, other: &SnapshotState, pool: &ExecPool) -> Result<SnapshotState> {
        self.schema().require_union_compatible(other.schema())?;
        if self.is_empty() || other.is_empty() || self.shares_run(other) {
            return self.difference(other);
        }
        let want = pool.chunks_for(self.len() + other.len(), SET_GRAIN);
        let parts = aligned_parts(self.run(), other.run(), want, |t| t);
        let runs = pool.map_chunks(OpKind::Difference, &parts, 1, |chunk| {
            concat(
                chunk
                    .iter()
                    .map(|(lr, rr)| {
                        merge_difference(&self.run()[lr.clone()], &other.run()[rr.clone()])
                    })
                    .collect(),
            )
        });
        if runs.iter().map(Vec::len).sum::<usize>() == self.len() {
            // Disjoint operands: nothing removed, share the left run.
            return Ok(self.clone());
        }
        Ok(SnapshotState::from_sorted_vec(
            self.schema().clone(),
            concat(runs),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_state, GenConfig};
    use crate::rng::rngs::StdRng;
    use crate::rng::SeedableRng;
    use crate::{DomainType, Schema, Value};

    fn schema(prefix: &str) -> Schema {
        Schema::new(vec![
            (format!("{prefix}0"), DomainType::Int),
            (format!("{prefix}1"), DomainType::Str),
        ])
        .unwrap()
    }

    fn random(seed: u64, prefix: &str, cardinality: usize) -> SnapshotState {
        let cfg = GenConfig {
            arity: 2,
            cardinality,
            int_range: 64,
            str_pool: 8,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        random_state(&mut rng, &schema(prefix), &cfg)
    }

    /// Every kernel, at several thread counts, against its sequential
    /// twin — results must be equal (and errors must agree).
    #[test]
    fn partitioned_kernels_match_sequential() {
        let a = random(1, "a", 3000);
        let b = random(2, "a", 3000);
        let c = random(3, "c", 40);
        let pred = Predicate::gt_const("a0", Value::Int(20));
        for threads in [1, 2, 3, 8] {
            let pool = ExecPool::new(threads);
            assert_eq!(
                a.select(&pred).unwrap(),
                a.select_par(&pred, &pool).unwrap()
            );
            assert_eq!(
                a.project(&["a1"]).unwrap(),
                a.project_par(&["a1"], &pool).unwrap()
            );
            assert_eq!(a.union(&b).unwrap(), a.union_par(&b, &pool).unwrap());
            assert_eq!(
                a.difference(&b).unwrap(),
                a.difference_par(&b, &pool).unwrap()
            );
            assert_eq!(a.product(&c).unwrap(), a.product_par(&c, &pool).unwrap());
        }
    }

    #[test]
    fn partitioned_kernels_preserve_errors() {
        let a = random(1, "a", 8);
        let pool = ExecPool::new(4);
        assert!(a
            .select_par(&Predicate::eq_const("ghost", Value::Int(0)), &pool)
            .is_err());
        assert!(a.project_par(&["ghost"], &pool).is_err());
        // Name clash in product; incompatible schemes in union/difference.
        assert!(a.product_par(&a, &pool).is_err());
        let other = random(2, "z", 8);
        assert!(a.union_par(&other, &pool).is_err());
        assert!(a.difference_par(&other, &pool).is_err());
    }

    #[test]
    fn partitioned_identity_shortcuts_still_share() {
        let a = random(1, "a", 1200);
        let empty = SnapshotState::empty(schema("a"));
        let pool = ExecPool::new(4);
        let u = a.union_par(&empty, &pool).unwrap();
        assert!(a.shares_run(&u));
        let d = a.difference_par(&empty, &pool).unwrap();
        assert!(a.shares_run(&d));
        // Subsumption: a ∪ a (by value, not pointer) shares the left run.
        let twin = SnapshotState::new(schema("a"), a.iter().cloned()).unwrap();
        assert!(!a.shares_run(&twin));
        let u2 = a.union_par(&twin, &pool).unwrap();
        assert!(a.shares_run(&u2));
    }
}
