// Fixture: method calls on struct fields resolve through the field's
// declared type (scanned as crates/core/src/a.rs). `Gauge` has no impl
// in this crate, so `depth.add` reaches nothing, while `log.add` reaches
// `Journal::add` alone — not the same-named `Collector::add`.

use eden_obs::Gauge;

struct Pool {
    state: Mutex<u32>,
    depth: Arc<Gauge>,
    log: Arc<Journal>,
}

struct Journal {
    entries: Mutex<Vec<u64>>,
}

struct Collector {
    seen: Mutex<u32>,
}

impl Pool {
    fn submit(&self) {
        let st = self.state.lock();
        self.depth.add(1);
        self.log.add(2);
        drop(st);
    }
}

impl Journal {
    fn add(&self, x: u64) {
        self.entries.lock().push(x);
    }
}

impl Collector {
    fn add(&self, _x: i64) {
        *self.seen.lock() += 1;
    }
}
