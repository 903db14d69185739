//! L1 `pool-discipline`: kernel threads come from the virtual-processor
//! pool; transport threads are named (`eden-mesh-*`, `eden-tcp-*` —
//! accept loops, the fixed `eden-tcp-rdr-*` reader pool, per-peer
//! writers) so flight-recorder dumps and leak hunts can attribute them.

use crate::lexer::{word_occurrences, SourceModel};
use crate::{Finding, Rule};

/// The file whose `Node::new` spawns each node's `eden-recv` and
/// `eden-watchdog` threads.
const NODE_THREADS_FILE: &str = "crates/core/src/node.rs";

pub(crate) fn check(rel_path: &str, model: &SourceModel, out: &mut Vec<Finding>) {
    let in_core = rel_path.starts_with("crates/core/src/") && !rel_path.ends_with("vproc.rs");
    let in_transport = rel_path.starts_with("crates/transport/src/");
    if !in_core && !in_transport {
        return;
    }
    let mut sites: Vec<usize> = word_occurrences(&model.code, "spawn")
        .into_iter()
        .filter(|&at| {
            // `thread::spawn(` directly, or `.spawn(` completing a
            // `thread::Builder` chain within the preceding few lines.
            let before = &model.code[..at];
            if before.ends_with("thread::") {
                return true;
            }
            if before.ends_with('.') {
                let window_start = before.len().saturating_sub(300);
                return before[window_start..].contains("thread::Builder");
            }
            false
        })
        .collect();
    sites.dedup_by_key(|at| model.line_of(*at));
    for at in sites {
        let line = model.line_of(at);
        if model.is_test_line(line) {
            continue;
        }
        // In-lint allowlists, checked in a window around the spawn:
        // the kernel's two legitimate direct threads (the per-node
        // receive loop, named "eden-recv-<id>", and the stall watchdog,
        // named "eden-watchdog-<id>" — both must stay off the pool they
        // observe), and the transport's infrastructure threads, which
        // must carry an "eden-mesh-*" or "eden-tcp-*" name (accept
        // loops, readers, per-peer writers, the loopback delay pump).
        let lo = model.line_starts[line.saturating_sub(4).max(1) - 1];
        let hi = model
            .line_starts
            .get(line + 3)
            .copied()
            .unwrap_or(model.raw.len());
        let window = &model.raw[lo..hi];
        if rel_path == NODE_THREADS_FILE
            && (window.contains("eden-recv") || window.contains("eden-watchdog"))
        {
            continue;
        }
        if in_transport && (window.contains("eden-mesh-") || window.contains("eden-tcp-")) {
            continue;
        }
        let message = if in_transport {
            "direct thread spawn in eden-transport without an eden-mesh-*/eden-tcp-* \
             thread name; transport threads must be named for attribution"
        } else {
            "direct thread spawn in eden-core; kernel work must go through \
             VirtualProcessorPool::submit (allowlisted: vproc.rs workers, \
             the eden-recv loop, the eden-watchdog thread)"
        };
        out.push(Finding {
            rule: Rule::PoolDiscipline,
            file: rel_path.to_string(),
            line,
            message: message.to_string(),
            suppressed: false,
        });
    }
}
