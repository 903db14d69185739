// Fixture: L3 panic-hygiene clean file (scanned as crates/core/src/x.rs).
// Poison recovery, error propagation, unwraps on non-lock calls, and
// test code are all legal.

fn drain(state: &Mutex<Vec<u64>>, rx: &Receiver<u64>) -> Option<u64> {
    let mut queue = state.lock().unwrap_or_else(|e| e.into_inner());
    queue.pop().or_else(|| rx.recv().ok())
}

fn first(args: &[u64]) -> u64 {
    // unwrap on a slice accessor is outside L3's lock/channel scope.
    args.first().copied().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_locks() {
        let m = std::sync::Mutex::new(3);
        assert_eq!(*m.lock().unwrap(), 3);
    }
}
