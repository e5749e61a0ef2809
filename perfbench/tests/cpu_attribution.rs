//! CPU attribution: a thread that spins for a known time is counted on
//! the side it belongs to.
//!
//! Every thread of the test process counts, so the checks live in one test
//! function: nothing else may spin while they run.

use hyrec_perfbench::cpu::{current_tid, Attribution};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

const SPIN: Duration = Duration::from_millis(400);

fn spin(length: Duration) {
    let end = Instant::now() + length;
    let mut x = 0u64;
    while Instant::now() < end {
        x = std::hint::black_box(x.wrapping_add(1));
    }
}

#[test]
fn spinning_threads_are_attributed_to_their_side() {
    let attribution = Attribution::new(vec![current_tid().unwrap()]);

    // A server-side thread spins (and exits) while the generator waits.
    let before = attribution.sample().unwrap();
    std::thread::spawn(|| spin(SPIN)).join().unwrap();
    let split = attribution.sample().unwrap() - before;
    assert!(split.server_s >= 0.3, "server side saw {split:?}");
    assert!(split.generator_s <= 0.05, "generator side saw {split:?}");

    // The generator thread spins itself.
    let before = attribution.sample().unwrap();
    spin(SPIN);
    let split = attribution.sample().unwrap() - before;
    assert!(split.generator_s >= 0.3, "generator side saw {split:?}");
    assert!(split.server_s <= 0.05, "server side saw {split:?}");

    // A second thread registered as a generator counts as one.
    let (tid_tx, tid_rx) = mpsc::channel();
    let steps = Arc::new(Barrier::new(2));
    let worker_steps = Arc::clone(&steps);
    let worker = std::thread::spawn(move || {
        tid_tx.send(current_tid().unwrap()).unwrap();
        worker_steps.wait(); // start
        spin(SPIN);
        worker_steps.wait(); // spun
        worker_steps.wait(); // sampled: may exit now
    });
    let attribution = Attribution::new(vec![current_tid().unwrap(), tid_rx.recv().unwrap()]);
    let before = attribution.sample().unwrap();
    steps.wait();
    steps.wait();
    let split = attribution.sample().unwrap() - before;
    steps.wait();
    worker.join().unwrap();
    assert!(split.generator_s >= 0.3, "generator side saw {split:?}");
    assert!(split.server_s <= 0.05, "server side saw {split:?}");
}
