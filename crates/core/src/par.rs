//! Deterministic data-parallel execution helpers.
//!
//! Everything here is built on `std::thread::scope` — no extra dependencies
//! — and follows one rule: **thread count must never change results**. Work
//! is sharded round-robin by index, every worker writes into pre-assigned
//! slots, and results are reassembled in input order, so the caller observes
//! the same output for `jobs = 1` and `jobs = N`. Each worker flushes its
//! trace buffer as its last step, so a [`crate::trace::take`] after a call
//! sees every worker's spans.

use std::collections::HashMap;
use std::num::NonZeroUsize;

/// Clamps a requested worker count to something sane: `0` means "ask the
/// OS for the available parallelism", anything else is used as-is but never
/// exceeds the number of items to process.
pub fn effective_jobs(requested: usize, items: usize) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    jobs.clamp(1, items.max(1))
}

/// Applies `f` to every item, using up to `jobs` worker threads, and returns
/// the outputs **in input order** regardless of scheduling. With `jobs <= 1`
/// (or a single item) no threads are spawned at all.
pub fn parallel_map<T, U, F>(items: &[T], jobs: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    parallel_map_with_state(items, jobs, &mut (), |_, i, t| f(i, t))
}

/// Like [`parallel_map`], but each worker carries a mutable state value
/// (e.g. a model with its scratch buffers) across all the items it
/// processes. When the work runs on the calling thread (`jobs <= 1` or a
/// single item) the caller's own `state` is used directly — no clone — so
/// its buffers stay warm across calls; multi-threaded runs clone it once
/// per worker, inside the worker thread, and leave the caller's untouched.
///
/// Results are the same for every `jobs` value provided `f` leaves `state`
/// observationally unchanged (e.g. gradients are extracted with
/// `take_grads`, caches are mere scratch).
pub fn parallel_map_with_state<T, U, S, F>(items: &[T], jobs: usize, state: &mut S, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    S: Clone + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
    if jobs <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(state, i, t))
            .collect();
    }
    let shared: &S = state;
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    // Hand each worker a disjoint set of &mut slots: chunk the output into
    // single-element windows and distribute them round-robin by index, the
    // same scheme used to shard the input.
    let mut slot_refs: Vec<Option<&mut Option<U>>> = out.iter_mut().map(Some).collect();
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let worker_slots: Vec<(usize, &mut Option<U>)> = slot_refs
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| i % jobs == w)
                .map(|(i, s)| (i, s.take().expect("slot handed out twice")))
                .collect();
            let f = &f;
            scope.spawn(move || {
                let mut state = shared.clone();
                for (i, slot) in worker_slots {
                    *slot = Some(f(&mut state, i, &items[i]));
                }
                crate::trace::flush_thread();
            });
        }
    });
    out.into_iter()
        .map(|s| s.expect("worker filled every assigned slot"))
        .collect()
}

/// Inference logits of `n` token-id sequences (`ids(i)` is the `i`-th) on
/// up to `jobs` worker threads, in input order. Each distinct id sequence
/// is scored once and its logit copied to every duplicate. The distinct
/// sequences are ordered by their **last** occurrence; the `k`-th joins
/// shard `k % jobs`, and each shard goes through `infer` in one batched
/// call on its worker's copy of `net` — at one job `net` itself, so its
/// scratch buffers stay warm and its final forward is on the batch's last
/// sequence (what `token_weights` and the backward caches report); more
/// jobs clone the network alone. The logits are the same for every `jobs`
/// value, and the same as scoring every duplicate, provided `infer` gives a
/// sequence the same bits in any batch, as every network's `infer_logits`
/// does. Records the distinct count as the `score.distinct` trace counter.
pub(crate) fn infer_sharded<N, F>(
    net: &mut N,
    n: usize,
    jobs: usize,
    ids: impl Fn(usize) -> Vec<usize>,
    infer: F,
) -> Vec<f64>
where
    N: Clone + Sync,
    F: Fn(&mut N, &[Vec<usize>]) -> Vec<f64> + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let mut all: Vec<Vec<usize>> = (0..n).map(ids).collect();
    // Walking the batch backwards meets each sequence first at its last
    // occurrence: `lasts[slot]` is the index of the `slot`-th such
    // occurrence from the end, and `slot_of[i]` the slot sequence `i`
    // shares. The map is std's randomly keyed one because server requests
    // choose the keys.
    let mut slot_of = vec![0; n];
    let mut lasts: Vec<usize> = Vec::new();
    let mut seen: HashMap<&[usize], usize> = HashMap::with_capacity(n);
    for i in (0..n).rev() {
        slot_of[i] = *seen.entry(&all[i]).or_insert_with(|| {
            lasts.push(i);
            lasts.len() - 1
        });
    }
    drop(seen);
    let distinct = lasts.len();
    crate::trace::counter("score.distinct", distinct as f64);
    let jobs = effective_jobs(jobs, distinct);
    let mut shards: Vec<Vec<Vec<usize>>> = (0..jobs)
        .map(|_| Vec::with_capacity(distinct.div_ceil(jobs)))
        .collect();
    // The `k`-th distinct sequence in last-occurrence order is slot
    // `distinct - 1 - k`.
    for (k, &i) in lasts.iter().rev().enumerate() {
        shards[k % jobs].push(std::mem::take(&mut all[i]));
    }
    let per_shard = parallel_map_with_state(&shards, jobs, net, |net, _, batch| infer(net, batch));
    slot_of
        .into_iter()
        .map(|slot| {
            let k = distinct - 1 - slot;
            per_shard[k % jobs][k / jobs]
        })
        .collect()
}

/// Derives an independent RNG seed for one training sample from the run
/// seed, the epoch, and the sample's position in the (shuffled) epoch order.
/// Keying the dropout stream on the *position* rather than on how many
/// samples a thread has processed is what decouples randomness from the
/// execution schedule. SplitMix64-style finalizer: cheap, and scrambles
/// related inputs (epoch, epoch+1, …) into unrelated seeds.
pub fn sample_seed(run_seed: u64, epoch: usize, position: usize) -> u64 {
    let mut z = run_seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(1 + epoch as u64))
        .wrapping_add(0x6a09_e667_f3bc_c909u64.wrapping_mul(1 + position as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn effective_jobs_clamps() {
        assert_eq!(effective_jobs(1, 100), 1);
        assert_eq!(effective_jobs(4, 100), 4);
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(5, 0), 1);
        assert!(effective_jobs(0, 100) >= 1);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..37).collect();
        let seq = parallel_map(&items, 1, |i, &x| (i, x * 2));
        for jobs in [2, 3, 4, 8] {
            let par = parallel_map(&items, jobs, |i, &x| (i, x * 2));
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_with_initializes_once_per_worker() {
        // Counts its own clones: the state is cloned once per worker
        // thread, never per item.
        struct Counted<'a>(&'a AtomicUsize);
        impl Clone for Counted<'_> {
            fn clone(&self) -> Self {
                self.0.fetch_add(1, Ordering::SeqCst);
                Counted(self.0)
            }
        }
        let clones = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let mut state = Counted(&clones);
        let out = parallel_map_with_state(&items, 4, &mut state, |_, _, &x| x);
        assert_eq!(out, items);
        assert_eq!(clones.load(Ordering::SeqCst), 4, "one clone per worker");
    }

    #[test]
    fn parallel_map_with_state_matches_clone_based_path() {
        let items: Vec<usize> = (0..41).collect();
        // State counts how many items the owning worker has seen; outputs
        // must not depend on jobs because f's result ignores the counter.
        #[derive(Clone)]
        struct Counter(usize);
        let mut state = Counter(0);
        let seq = parallel_map_with_state(&items, 1, &mut state, |s, i, &x| {
            s.0 += 1;
            (i, x * 3)
        });
        // jobs <= 1 must use the caller's state directly: every item
        // accumulates into the one counter the caller handed in.
        assert_eq!(state.0, items.len());
        for jobs in [2, 3, 8] {
            let mut st = Counter(0);
            let par = parallel_map_with_state(&items, jobs, &mut st, |s, i, &x| {
                s.0 += 1;
                (i, x * 3)
            });
            assert_eq!(par, seq, "jobs={jobs}");
            // Multi-threaded runs work on clones; the caller's state is
            // left untouched.
            assert_eq!(st.0, 0, "jobs={jobs}");
        }
    }

    #[test]
    fn infer_sharded_scores_each_distinct_sequence_once_by_last_occurrence() {
        let s = |toks: &[&str]| toks.iter().map(|t| t.to_string()).collect::<Vec<String>>();
        let vocab = sevuldet_embedding::Vocab::build([s(&["a", "b"]).as_slice()], 1);
        let batches = [
            // The last stream repeats an earlier one.
            vec![s(&["a"]), s(&["b"]), s(&["a", "b"]), s(&["b"]), s(&["a"])],
            // Different tokens, same ids: `x` and `y` are both `<unk>`.
            vec![s(&["x", "a"]), s(&["b"]), s(&["y", "a"]), s(&["a"])],
            // The empty stream, twice.
            vec![s(&[]), s(&["a"]), s(&[]), s(&["b"])],
            // No duplicates.
            vec![s(&["a"]), s(&["b"]), s(&["a", "a"]), s(&["b", "a"])],
        ];
        // A logit that tells every id sequence apart.
        let logit = |ids: &[usize]| {
            ids.iter()
                .fold(ids.len() as f64, |acc, &id| acc * 7.0 + id as f64)
        };
        for streams in &batches {
            let ids: Vec<Vec<usize>> = streams.iter().map(|t| vocab.encode(t)).collect();
            let order: Vec<Vec<usize>> = (0..ids.len())
                .filter(|&i| !ids[i + 1..].contains(&ids[i]))
                .map(|i| ids[i].clone())
                .collect();
            let want: Vec<f64> = ids.iter().map(|seq| logit(seq)).collect();
            for jobs in 1..=3 {
                let calls = std::sync::Mutex::new(Vec::new());
                let got = infer_sharded(
                    &mut (),
                    streams.len(),
                    jobs,
                    |i| vocab.encode(&streams[i]),
                    |_, batch: &[Vec<usize>]| {
                        calls.lock().unwrap().push(batch.to_vec());
                        batch.iter().map(|seq| logit(seq)).collect()
                    },
                );
                assert_eq!(got, want, "jobs={jobs}: {streams:?}");
                // One call per shard; shard `w` holds the `w`-th, then every
                // `jobs`-th, distinct sequence in last-occurrence order.
                let shards = jobs.min(order.len());
                let mut expected: Vec<Vec<Vec<usize>>> = (0..shards)
                    .map(|w| order.iter().skip(w).step_by(shards).cloned().collect())
                    .collect();
                let mut seen = calls.into_inner().unwrap();
                expected.sort();
                seen.sort();
                assert_eq!(seen, expected, "jobs={jobs}: {streams:?}");
            }
        }
    }

    #[test]
    fn sample_seeds_do_not_collide_in_practice() {
        let mut seen = HashSet::new();
        for epoch in 0..8 {
            for pos in 0..256 {
                seen.insert(sample_seed(42, epoch, pos));
            }
        }
        assert_eq!(seen.len(), 8 * 256, "distinct (epoch, position) seeds");
        assert_ne!(sample_seed(1, 0, 0), sample_seed(2, 0, 0));
    }
}
