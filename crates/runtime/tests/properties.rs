//! Property and stress tests for `deco-runtime`: chunked partials from
//! `parallel_for_chunks`, folded on the caller, against a serial fold
//! over arbitrary inputs, and concurrent submitters on one shared pool.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

proptest! {
    /// `parallel_for_chunks` partials folded left to right on the caller,
    /// over arbitrary lengths and chunk sizes, equal the plain serial
    /// left fold — including non-associative f32 sums — at both 1 and 4
    /// threads.
    #[test]
    fn reduce_equals_serial_fold(
        values in prop::collection::vec(-10.0f32..10.0, 0..200),
        chunk in 1usize..32,
    ) {
        let serial = {
            let chunks: Vec<f32> = values
                .chunks(chunk)
                .map(|c| c.iter().fold(0.0f32, |a, &b| a + b))
                .collect();
            chunks.into_iter().reduce(|a, b| a + b)
        };
        for threads in [1usize, 4] {
            let data = values.clone();
            let partials = deco_runtime::with_thread_count(threads, move || {
                deco_runtime::parallel_for_chunks(data.len(), chunk, move |r| {
                    r.map(|i| data[i]).fold(0.0f32, |a, b| a + b)
                })
            });
            let par = partials.into_iter().reduce(|a, b| a + b);
            prop_assert_eq!(
                par.map(f32::to_bits),
                serial.map(f32::to_bits),
                "threads={} n={} chunk={}",
                threads,
                values.len(),
                chunk
            );
        }
    }

    /// `parallel_map` keeps index order for arbitrary input lengths.
    #[test]
    fn map_is_index_ordered(n in 0usize..150) {
        let out = deco_runtime::with_thread_count(4, move || {
            deco_runtime::parallel_map((0..n).collect(), |i, x| {
                assert_eq!(i, x);
                x * 3 + 1
            })
        });
        prop_assert_eq!(out, (0..n).map(|x| x * 3 + 1).collect::<Vec<_>>());
    }
}

proptest! {
    /// The fold runs strictly left-to-right over chunk partials, so even
    /// a **non-commutative** fold (string concatenation) must come out in
    /// chunk order at any thread count. This pins down the documented
    /// "fold runs on the caller in chunk order" contract — a scheduler
    /// that folded partials in completion order would scramble the string.
    #[test]
    fn non_commutative_string_fold_is_chunk_ordered(
        n in 0usize..120,
        chunk in 1usize..16,
    ) {
        let expected: String = (0..n).map(|i| format!("[{i}]")).collect();
        for threads in [1usize, 4] {
            let partials = deco_runtime::with_thread_count(threads, move || {
                deco_runtime::parallel_for_chunks(n, chunk, |r| {
                    r.map(|i| format!("[{i}]")).collect::<String>()
                })
            });
            let got = partials
                .into_iter()
                .reduce(|mut a, b| {
                    a.push_str(&b);
                    a
                })
                .unwrap_or_default();
            prop_assert_eq!(&got, &expected, "threads={} n={} chunk={}", threads, n, chunk);
        }
    }

    /// Same contract through a non-commutative *algebra*: 2×2 integer
    /// matrix products (mod a prime so values stay bounded). Matrix
    /// multiplication is associative but not commutative, so any
    /// out-of-order pairing of chunk partials changes the product.
    #[test]
    fn non_commutative_matrix_fold_matches_serial(
        seeds in prop::collection::vec(0u64..1000, 1..60),
        chunk in 1usize..8,
    ) {
        const P: u64 = 1_000_003;
        type M = [u64; 4];
        fn elem(seed: u64) -> M {
            // Invertible-ish small matrices; exact values are irrelevant,
            // only that distinct seeds give non-commuting factors.
            [seed % 7 + 1, seed % 5, seed % 3, seed % 11 + 2]
        }
        fn mul(a: M, b: M) -> M {
            [
                (a[0] * b[0] + a[1] * b[2]) % P,
                (a[0] * b[1] + a[1] * b[3]) % P,
                (a[2] * b[0] + a[3] * b[2]) % P,
                (a[2] * b[1] + a[3] * b[3]) % P,
            ]
        }
        const ID: M = [1, 0, 0, 1];
        let serial = seeds.iter().fold(ID, |acc, &s| mul(acc, elem(s)));
        for threads in [1usize, 4] {
            let seeds = seeds.clone();
            let partials = deco_runtime::with_thread_count(threads, move || {
                deco_runtime::parallel_for_chunks(seeds.len(), chunk, move |r| {
                    r.map(|i| elem(seeds[i])).fold(ID, mul)
                })
            });
            let got = partials.into_iter().reduce(mul).unwrap();
            prop_assert_eq!(got, serial, "threads={} chunk={}", threads, chunk);
        }
    }
}

/// One item's work for [`submitters_share_one_pool_concurrently`]: counts
/// the run, records the running thread's name and takes about a
/// millisecond, long enough that the submitters cannot drain a batch
/// before a woken worker claims a share.
fn run_item(runs: &[AtomicUsize], slot: usize, ran_on: &Mutex<BTreeSet<String>>) {
    runs[slot].fetch_add(1, Ordering::Relaxed);
    let name = thread::current().name().unwrap_or_default().to_owned();
    ran_on.lock().unwrap().insert(name);
    thread::sleep(Duration::from_millis(1));
}

/// Several OS threads install one shared 4-thread pool at the same time
/// and submit `parallel_map` batches whose items submit nested batches.
/// Every item must run exactly once and come back in index order. A
/// batch completes on its submitter alone, so the test also records the
/// names of the threads that ran items: pool workers (`deco-runtime-*`)
/// must be among them, or the shared task stack was never drained.
#[test]
fn submitters_share_one_pool_concurrently() {
    const SUBMITTERS: usize = 3;
    const ROUNDS: usize = 4;
    const ITEMS: usize = 8;
    const INNER: usize = 3;
    // Each outer item owns `1 + INNER` run counters: its own, then its
    // nested items'.
    const SLOTS: usize = 1 + INNER;

    let pool = deco_runtime::Pool::new(4);
    let runs: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..SUBMITTERS * ROUNDS * ITEMS * SLOTS)
            .map(|_| AtomicUsize::new(0))
            .collect(),
    );
    let ran_on = Arc::new(Mutex::new(BTreeSet::new()));
    let start = Barrier::new(SUBMITTERS);

    thread::scope(|scope| {
        for submitter in 0..SUBMITTERS {
            let (pool, start, runs, ran_on) = (&pool, &start, &runs, &ran_on);
            scope.spawn(move || {
                start.wait();
                pool.install(|| {
                    for round in 0..ROUNDS {
                        let base = (submitter * ROUNDS + round) * ITEMS;
                        let (runs, ran_on) = (Arc::clone(runs), Arc::clone(ran_on));
                        let out = deco_runtime::parallel_map(
                            (base..base + ITEMS).collect(),
                            move |i, item: usize| {
                                run_item(&runs, item * SLOTS, &ran_on);
                                let (runs, ran_on) = (Arc::clone(&runs), Arc::clone(&ran_on));
                                let inner = deco_runtime::parallel_map(
                                    (0..INNER).collect(),
                                    move |j, x| {
                                        run_item(&runs, item * SLOTS + 1 + j, &ran_on);
                                        (j, x)
                                    },
                                );
                                (i, item, inner)
                            },
                        );
                        let inner: Vec<(usize, usize)> = (0..INNER).map(|j| (j, j)).collect();
                        let expect: Vec<_> =
                            (0..ITEMS).map(|i| (i, base + i, inner.clone())).collect();
                        assert_eq!(out, expect, "submitter {submitter} round {round}");
                    }
                });
            });
        }
    });

    for (slot, count) in runs.iter().enumerate() {
        let count = count.load(Ordering::Relaxed);
        assert_eq!(count, 1, "item slot {slot} ran {count} times");
    }
    let ran_on = ran_on.lock().unwrap();
    assert!(
        ran_on.iter().any(|name| name.starts_with("deco-runtime-")),
        "no pool worker ran an item; items ran on {ran_on:?}"
    );
}

/// The pool drains large bursts submitted from multiple installed
/// scopes without losing results (stress for the claim-index engine).
#[test]
fn pool_handles_large_batches() {
    let out = deco_runtime::with_thread_count(8, || {
        deco_runtime::parallel_map((0..5_000usize).collect(), |_, x| x ^ 0x5a5a)
    });
    assert_eq!(out.len(), 5_000);
    for (i, v) in out.into_iter().enumerate() {
        assert_eq!(v, i ^ 0x5a5a);
    }
}
