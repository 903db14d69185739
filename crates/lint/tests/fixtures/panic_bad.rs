// Fixture: L3 panic-hygiene violations (scanned as crates/core/src/x.rs).

fn drain(state: &Mutex<Vec<u64>>, rx: &Receiver<u64>, tx: &Sender<u64>) {
    let mut queue = state.lock().unwrap();
    queue.push(rx.recv().unwrap());
    tx.send(1).expect("peer gone");
    let handle = std::thread::current();
    let _ = state
        .lock()
        .expect("poisoned");
}
