//! L6 `blocking-discipline`: a virtual-processor worker must not block
//! the processor. Blocking operations (`recv_timeout`, `wait`,
//! `wait_timeout`, `sleep`, `fsync`, `connect`, `dial`, `join`) that
//! are lexically inside a `submit(…)`/`submit_traced(…)` closure, or
//! inside a function reachable (same-crate, name-resolved call graph)
//! from one, must be wrapped in the pool's `blocking(…)` spare-
//! injection guard.
//!
//! `crates/core/src/vproc.rs` is out of scope: it *is* the pool — its
//! condvar waits are the scheduler, and `blocking()` itself must block.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::model::{FileModel, FnRef, Workspace};
use crate::{Finding, Rule};

const SCOPE: [&str; 3] = ["core", "transport", "directory"];
const POOL_IMPL: &str = "crates/core/src/vproc.rs";

pub(crate) fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    // Roots: call targets inside submit closures. A call already under
    // a blocking() guard is exempt — the pool has been told this path
    // may stall.
    let mut reached: HashMap<FnRef, String> = HashMap::new();
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    for (_, file) in scoped(ws) {
        for f in &file.fns {
            for c in &f.calls {
                if c.in_submit && !c.guarded && !c.in_spawn {
                    for callee in ws.callees(file, c) {
                        if let Entry::Vacant(e) = reached.entry(callee) {
                            e.insert(c.callee.clone());
                            queue.push_back(callee);
                        }
                    }
                }
            }
        }
    }

    // BFS over unguarded call edges; remember which root reaches each
    // function for the diagnostic.
    while let Some((fi, gi)) = queue.pop_front() {
        let root = reached[&(fi, gi)].clone();
        let file = &ws.files[fi];
        for c in &file.fns[gi].calls {
            if c.guarded || c.in_spawn {
                // blocking() has told the pool; spawn closures run on
                // their own thread, which is allowed to block.
                continue;
            }
            for callee in ws.callees(file, c) {
                if let Entry::Vacant(e) = reached.entry(callee) {
                    e.insert(root.clone());
                    queue.push_back(callee);
                }
            }
        }
    }

    // Findings: unguarded blocking sites in reachable functions, plus
    // unguarded blocking sites lexically inside submit closures.
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for (fi, file) in scoped(ws) {
        for (gi, f) in file.fns.iter().enumerate() {
            let via_root = reached.get(&(fi, gi));
            for b in &f.blocking {
                if b.guarded || b.in_spawn {
                    continue; // dedicated threads are allowed to block
                }
                let reachable = via_root.is_some() || b.in_submit;
                if !reachable {
                    continue;
                }
                let line = file.model.line_of(b.at);
                if !seen.insert((file.rel_path.clone(), line)) {
                    continue;
                }
                let how = match via_root {
                    Some(root) if !b.in_submit => {
                        format!("in `{}`, reachable from pool entry point `{root}`", f.name)
                    }
                    _ => "inside a pool submit closure".to_string(),
                };
                out.push(Finding {
                    rule: Rule::BlockingDiscipline,
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "blocking `.{}(…)` {how}; it would stall a virtual processor — \
                         wrap the call in vproc::blocking(…) so the pool \
                         injects a spare worker",
                        b.what
                    ),
                    suppressed: false,
                });
            }
        }
    }
}

fn scoped(ws: &Workspace) -> impl Iterator<Item = (usize, &FileModel)> {
    ws.files
        .iter()
        .enumerate()
        .filter(|(_, f)| SCOPE.contains(&f.crate_key.as_str()) && f.rel_path != POOL_IMPL)
}
