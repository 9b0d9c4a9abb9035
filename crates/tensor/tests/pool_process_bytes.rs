//! `pool::process_held_bytes` sums what every live thread has parked.
//!
//! In its own binary, with one test, so no concurrent test moves the
//! sum and the checks can be exact.

use std::sync::mpsc;
use std::thread;

use deco_tensor::pool;

#[test]
fn a_threads_parked_bytes_join_the_sum_and_leave_it_when_it_exits() {
    const LEN: usize = 1 << 16;
    let bytes = (LEN * std::mem::size_of::<f32>()) as u64;
    assert_eq!(pool::process_held_bytes(), 0);

    let (parked_tx, parked_rx) = mpsc::channel();
    let (exit_tx, exit_rx) = mpsc::channel::<()>();
    let worker = thread::spawn(move || {
        pool::give(pool::take(LEN));
        parked_tx
            .send(pool::stats().held_bytes)
            .expect("test alive");
        exit_rx.recv().expect("test signals exit");
    });
    assert_eq!(parked_rx.recv().expect("worker parks"), bytes);
    assert_eq!(pool::process_held_bytes(), bytes);

    exit_tx.send(()).expect("worker alive");
    worker.join().expect("worker thread");
    assert_eq!(pool::process_held_bytes(), 0);
}
