//! Partitioned (parallel) variants of the historical operators.
//!
//! The same partition/merge discipline as the snapshot kernels
//! (`txtime_snapshot::ops::par`), applied to sorted-run historical
//! states: operands are split on slice ranges of the canonical run
//! (an O(1) partitioning — no per-entry collection), ranges are
//! evaluated on scoped worker threads, and the per-range results are
//! concatenated in range order. σ̂, π̂-free kernels and −̂ yield disjoint
//! sorted runs; ×̂ chunks the left operand so runs stay disjoint and
//! sorted; ∪̂ and −̂ split *both* operands at aligned pivot tuples
//! ([`txtime_exec::aligned_parts`]) so each chunk is an independent
//! two-pointer merge. A one-thread pool yields a single chunk, which
//! [`txtime_exec::concat`] hands back without a copy.

use txtime_exec::{aligned_parts, concat, ExecPool, OpKind};
use txtime_snapshot::Predicate;

use crate::ops::hmerge::{hmerge_difference, hmerge_union};
use crate::state::HistoricalState;
use crate::Result;

/// Minimum entries per chunk for the entry-at-a-time kernels; sourced
/// from the shared per-kernel heuristic.
const SET_GRAIN: usize = OpKind::HSelect.min_chunk();

/// Minimum output pairs per chunk for the product kernel.
const PRODUCT_PAIR_GRAIN: usize = OpKind::HProduct.min_chunk();

impl HistoricalState {
    /// [`HistoricalState::hselect`] evaluated over partitioned chunks.
    pub fn hselect_par(&self, predicate: &Predicate, pool: &ExecPool) -> Result<HistoricalState> {
        let compiled = predicate.compile(self.schema())?;
        let runs = pool.map_chunks(OpKind::HSelect, self.run(), SET_GRAIN, |chunk| {
            chunk
                .iter()
                .filter(|(t, _)| compiled.eval(t))
                .cloned()
                .collect::<Vec<_>>()
        });
        if runs.iter().map(Vec::len).sum::<usize>() == self.len() {
            return Ok(self.clone());
        }
        Ok(HistoricalState::from_sorted_vec(
            self.schema().clone(),
            concat(runs),
        ))
    }

    /// [`HistoricalState::hproject`] evaluated over partitioned chunks.
    pub fn hproject_par(
        &self,
        attrs: &[impl AsRef<str>],
        pool: &ExecPool,
    ) -> Result<HistoricalState> {
        let (schema, indices) = self.schema().project(attrs)?;
        let runs = pool.map_chunks(OpKind::HProject, self.run(), SET_GRAIN, |chunk| {
            chunk
                .iter()
                .map(|(t, e)| (t.project(&indices), e.clone()))
                .collect::<Vec<_>>()
        });
        // Chunks are contiguous input ranges, so the concatenation scans
        // projected entries in input order; from_unsorted_vec coalesces
        // collisions with the same left-to-right element unions as the
        // sequential kernel, independent of chunking.
        Ok(HistoricalState::from_unsorted_vec(schema, concat(runs)))
    }

    /// [`HistoricalState::hproduct`] with the left operand partitioned.
    pub fn hproduct_par(
        &self,
        other: &HistoricalState,
        pool: &ExecPool,
    ) -> Result<HistoricalState> {
        let schema = self.schema().product(other.schema())?;
        let grain = (PRODUCT_PAIR_GRAIN / other.len().max(1)).max(1);
        let runs = pool.map_chunks(OpKind::HProduct, self.run(), grain, |chunk| {
            let mut pairs = Vec::new();
            for (l, le) in chunk {
                for (r, re) in other.run() {
                    let e = le.intersect(re);
                    if !e.is_empty() {
                        pairs.push((l.concat(r), e));
                    }
                }
            }
            pairs
        });
        Ok(HistoricalState::from_sorted_vec(schema, concat(runs)))
    }

    /// [`HistoricalState::hunion`] partitioned into aligned range pairs,
    /// each merged independently.
    pub fn hunion_par(&self, other: &HistoricalState, pool: &ExecPool) -> Result<HistoricalState> {
        self.schema().require_union_compatible(other.schema())?;
        if self.is_empty() || other.is_empty() || self.shares_run(other) {
            return self.hunion(other);
        }
        let want = pool.chunks_for(self.len() + other.len(), SET_GRAIN);
        let parts = aligned_parts(self.run(), other.run(), want, |(t, _)| t);
        let runs = pool.map_chunks(OpKind::HUnion, &parts, 1, |chunk| {
            concat(
                chunk
                    .iter()
                    .map(|(lr, rr)| hmerge_union(&self.run()[lr.clone()], &other.run()[rr.clone()]))
                    .collect(),
            )
        });
        Ok(HistoricalState::from_sorted_vec(
            self.schema().clone(),
            concat(runs),
        ))
    }

    /// [`HistoricalState::hdifference`] partitioned into aligned range
    /// pairs, each subtracted independently.
    pub fn hdifference_par(
        &self,
        other: &HistoricalState,
        pool: &ExecPool,
    ) -> Result<HistoricalState> {
        self.schema().require_union_compatible(other.schema())?;
        if self.is_empty() || other.is_empty() || self.shares_run(other) {
            return self.hdifference(other);
        }
        let want = pool.chunks_for(self.len() + other.len(), SET_GRAIN);
        let parts = aligned_parts(self.run(), other.run(), want, |(t, _)| t);
        let runs = pool.map_chunks(OpKind::HDifference, &parts, 1, |chunk| {
            let mut changed = false;
            let survivors = chunk
                .iter()
                .map(|(lr, rr)| {
                    let (survivors, c) =
                        hmerge_difference(&self.run()[lr.clone()], &other.run()[rr.clone()]);
                    changed |= c;
                    survivors
                })
                .collect();
            (concat(survivors), changed)
        });
        if !runs.iter().any(|(_, changed)| *changed) {
            // No element changed: share the left run, like the
            // sequential kernel.
            return Ok(self.clone());
        }
        let runs = runs.into_iter().map(|(run, _)| run).collect();
        Ok(HistoricalState::from_sorted_vec(
            self.schema().clone(),
            concat(runs),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_historical_state, HistGenConfig};
    use txtime_snapshot::generate::GenConfig;
    use txtime_snapshot::rng::rngs::StdRng;
    use txtime_snapshot::rng::SeedableRng;
    use txtime_snapshot::{DomainType, Schema, Value};

    fn schema(prefix: &str) -> Schema {
        Schema::new(vec![
            (format!("{prefix}0"), DomainType::Int),
            (format!("{prefix}1"), DomainType::Str),
        ])
        .unwrap()
    }

    fn random(seed: u64, prefix: &str, cardinality: usize) -> HistoricalState {
        let cfg = HistGenConfig {
            values: GenConfig {
                arity: 2,
                cardinality,
                int_range: 64,
                str_pool: 8,
            },
            horizon: 50,
            max_periods: 3,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        random_historical_state(&mut rng, &schema(prefix), &cfg)
    }

    #[test]
    fn partitioned_kernels_match_sequential() {
        let a = random(1, "a", 2500);
        let b = random(2, "a", 2500);
        let c = random(3, "c", 30);
        let pred = Predicate::gt_const("a0", Value::Int(20));
        for threads in [1, 2, 3, 8] {
            let pool = ExecPool::new(threads);
            assert_eq!(
                a.hselect(&pred).unwrap(),
                a.hselect_par(&pred, &pool).unwrap()
            );
            assert_eq!(
                a.hproject(&["a1"]).unwrap(),
                a.hproject_par(&["a1"], &pool).unwrap()
            );
            assert_eq!(a.hunion(&b).unwrap(), a.hunion_par(&b, &pool).unwrap());
            assert_eq!(
                a.hdifference(&b).unwrap(),
                a.hdifference_par(&b, &pool).unwrap()
            );
            assert_eq!(a.hproduct(&c).unwrap(), a.hproduct_par(&c, &pool).unwrap());
        }
    }

    #[test]
    fn partitioned_kernels_preserve_errors() {
        let a = random(1, "a", 8);
        let pool = ExecPool::new(4);
        assert!(a
            .hselect_par(&Predicate::eq_const("ghost", Value::Int(0)), &pool)
            .is_err());
        assert!(a.hproject_par(&["ghost"], &pool).is_err());
        assert!(a.hproduct_par(&a, &pool).is_err());
        let other = random(2, "z", 8);
        assert!(a.hunion_par(&other, &pool).is_err());
        assert!(a.hdifference_par(&other, &pool).is_err());
    }

    #[test]
    fn partitioned_identity_shortcuts_still_share() {
        let a = random(1, "a", 1200);
        let empty = HistoricalState::empty(schema("a"));
        let pool = ExecPool::new(4);
        let u = a.hunion_par(&empty, &pool).unwrap();
        assert!(a.shares_run(&u));
        let d = a.hdifference_par(&empty, &pool).unwrap();
        assert!(a.shares_run(&d));
        // A value-equal twin with a distinct run still subtracts to keep
        // everything; the left run is shared by the no-change shortcut.
        let twin = HistoricalState::new(schema("a"), a.iter().map(|(t, e)| (t.clone(), e.clone())))
            .unwrap();
        assert!(!a.shares_run(&twin));
        let kept = a
            .hdifference_par(&twin.hdifference_par(&a, &pool).unwrap(), &pool)
            .unwrap();
        assert!(a.shares_run(&kept));
    }
}
