//! The threaded executor's liveness contract, in a process of its own so
//! that this file's single test decides how many helper threads exist: a
//! job whose helpers never arrive is finished by its caller alone, and a
//! process that is done executing holds `threads − 1` parked helpers and
//! no other thread of the runtime's making.

use std::sync::{Condvar, Mutex};

use calu_repro::matrix::Result;
use calu_repro::runtime::{Executor, LuDag, LuShape, Task, ThreadedExecutor};

/// OS threads of this process (Linux; `None` elsewhere).
fn os_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(Iterator::count)
}

#[test]
fn a_job_no_helper_joins_is_finished_by_its_caller_alone() {
    let g = LuDag::build(LuShape { m: 160, n: 160, nb: 32 }, 2);
    let threads_at_start = os_threads();

    // Job A: four workers (its caller and all three helpers the registry
    // will ever have here), each held inside a panel-0 leaf election
    // until the test lets go.
    let held = Mutex::new((0usize, false)); // (workers inside, released)
    let bell = Condvar::new();
    let blocking = |t: Task| -> Result<()> {
        if matches!(t, Task::PanelElect { k: 0, .. }) {
            let mut h = held.lock().unwrap();
            h.0 += 1;
            bell.notify_all();
            while !h.1 {
                h = bell.wait(h).unwrap();
            }
        }
        Ok(())
    };
    std::thread::scope(|s| {
        let a = s.spawn(|| ThreadedExecutor::new(4).execute(&g, &blocking));
        let mut h = held.lock().unwrap();
        while h.0 < 4 {
            h = bell.wait(h).unwrap();
        }
        drop(h);

        // Job B asks for four workers too and gets none but its caller.
        let me = std::thread::current().id();
        let elsewhere = Mutex::new(0usize);
        let rep = ThreadedExecutor::new(4)
            .execute(&g, &|_t: Task| -> Result<()> {
                if std::thread::current().id() != me {
                    *elsewhere.lock().unwrap() += 1;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(rep.order.len(), g.len(), "the caller alone must finish the job");
        assert_eq!(rep.workers, 4);
        assert!(rep.timings.iter().all(|t| t.worker == 0));
        assert_eq!(*elsewhere.lock().unwrap(), 0, "every helper is held inside job A");

        held.lock().unwrap().1 = true;
        bell.notify_all();
        assert_eq!(a.join().unwrap().unwrap().order.len(), g.len());
    });

    // A joined thread can outlive its `join` in `/proc` by a moment, so the
    // count gets a deadline to settle on exactly the three parked helpers.
    if let Some(before) = threads_at_start {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while os_threads() != Some(before + 3) && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(os_threads(), Some(before + 3), "three parked helpers and nothing else");
    }
}
