//! An interactive shell over a live Eden cluster.
//!
//! Drives the whole public API from a command line: create objects,
//! invoke them, move and freeze them, inspect kernels. Run it and type
//! `help`:
//!
//! ```sh
//! cargo run --example eden_shell            # interactive
//! echo -e "create counter\nls 0" | cargo run --example eden_shell
//! ```
//!
//! Capabilities are addressed by the `$N` handles the shell prints.

use std::collections::HashMap;
use std::io::{BufRead, Write};

use eden::apps::{with_apps, MonitorClient};
use eden::capability::{Capability, NodeId};
use eden::kernel::Cluster;
use eden::wire::Value;

const NODES: usize = 4;

struct Shell {
    cluster: Cluster,
    caps: Vec<Capability>,
    labels: HashMap<String, usize>,
    /// Lazily created monitor objects, keyed by export target
    /// (`all` or a node index).
    monitors: HashMap<String, MonitorClient>,
}

impl Shell {
    fn cap(&self, token: &str) -> Result<Capability, String> {
        let idx: usize = token
            .strip_prefix('$')
            .ok_or_else(|| format!("'{token}' is not a $N handle"))?
            .parse()
            .map_err(|_| format!("bad handle '{token}'"))?;
        self.caps
            .get(idx)
            .copied()
            .ok_or_else(|| format!("no such handle ${idx}"))
    }

    fn parse_value(token: &str) -> Value {
        if let Ok(n) = token.parse::<i64>() {
            return Value::I64(n);
        }
        Value::Str(token.to_string())
    }

    /// The lazily created monitor for `target` (`all` or a node index).
    fn monitor_for(&mut self, target: &str) -> Result<&MonitorClient, String> {
        if !self.monitors.contains_key(target) {
            let ids: Vec<NodeId> = if target == "all" {
                (0..NODES).map(|i| NodeId(i as u16)).collect()
            } else {
                let n: u16 = target.parse().map_err(|_| format!("bad node '{target}'"))?;
                vec![NodeId(n)]
            };
            let client =
                MonitorClient::create(self.cluster.node(0), &ids).map_err(|e| e.to_string())?;
            self.monitors.insert(target.to_string(), client);
        }
        Ok(&self.monitors[target])
    }

    fn exec(&mut self, line: &str) -> Result<String, String> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = parts.collect();
        match cmd {
            "help" => Ok("\
commands:
  types                              list registered types
  create <type> [node] [args…]       create an object; prints its $N handle
  invoke <$N> <op> [args…]           invoke (integers and strings inferred)
  from <node> <$N> <op> [args…]      invoke via a specific node
  move <$N> <node>                   kernel-level move
  freeze <$N>                        freeze the object
  cache <node> <$N>                  cache a frozen replica on a node
  info <$N>                          object introspection
  ls <node>                          active objects on a node
  metrics <node>                     counters, gauges and latency histograms
  vprocs <node>                      virtual-processor pool status
  trace <node> [n]                   last n flight-recorder events (default 16)
  members [node]                     gossip membership: one node's view, or
                                     every node's view via a monitor scrape
  watchdog <node|all>                stall-watchdog counters and the latest
                                     diagnostic snapshot per node
  critpath <trace-id>                cross-node critical-path breakdown of one
                                     sampled invocation (see metrics/trace for ids)
  export <node|all> <prom|trace|events> [path]
                                     write telemetry through a monitor object:
                                     Prometheus text / Chrome-trace JSON / JSONL
  label <name> <$N>                  name a handle
  quit"
                .to_string()),
            "types" => Ok(self.cluster.node(0).registry().type_names().join("\n")),
            "create" => {
                let type_name = args.first().ok_or("create <type> [node] [args…]")?;
                let (node, rest) = match args.get(1).and_then(|t| t.parse::<usize>().ok()) {
                    Some(n) if n < NODES => (n, &args[2..]),
                    _ => (0, &args[1..]),
                };
                let values: Vec<Value> = rest.iter().map(|t| Self::parse_value(t)).collect();
                let cap = self
                    .cluster
                    .node(node)
                    .create_object(type_name, &values)
                    .map_err(|e| e.to_string())?;
                self.caps.push(cap);
                Ok(format!(
                    "${} = {} on node {node}",
                    self.caps.len() - 1,
                    cap.name()
                ))
            }
            "invoke" | "from" => {
                let (node, rest) = if cmd == "from" {
                    let n: usize = args
                        .first()
                        .and_then(|t| t.parse().ok())
                        .ok_or("from <node> <$N> <op> [args…]")?;
                    (n, &args[1..])
                } else {
                    (0, &args[..])
                };
                let cap = self.cap(rest.first().ok_or("missing $N")?)?;
                let op = rest.get(1).ok_or("missing op")?;
                let values: Vec<Value> = rest[2..]
                    .iter()
                    .map(|t| {
                        if t.starts_with('$') {
                            self.cap(t).map(Value::Cap)
                        } else {
                            Ok(Self::parse_value(t))
                        }
                    })
                    .collect::<Result<_, _>>()?;
                match self.cluster.node(node).invoke(cap, op, &values) {
                    Ok(out) => Ok(format!("-> {out:?}")),
                    Err(e) => Ok(format!("!! {e}")),
                }
            }
            "move" => {
                let cap = self.cap(args.first().ok_or("move <$N> <node>")?)?;
                let dst: usize = args
                    .get(1)
                    .and_then(|t| t.parse().ok())
                    .ok_or("move <$N> <node>")?;
                // Find the node currently hosting it.
                let host = (0..NODES)
                    .find(|&i| self.cluster.node(i).is_local(cap.name()))
                    .ok_or("object is not active anywhere here")?;
                self.cluster
                    .node(host)
                    .move_object(cap, eden::capability::NodeId(dst as u16))
                    .map_err(|e| e.to_string())?;
                Ok(format!("move requested: node {host} -> node {dst}"))
            }
            "freeze" => {
                let cap = self.cap(args.first().ok_or("freeze <$N>")?)?;
                match self.cluster.node(0).invoke(cap, "freeze", &[]) {
                    Ok(_) => Ok("frozen".into()),
                    Err(e) => Ok(format!("(type has no freeze op: {e})")),
                }
            }
            "cache" => {
                let node: usize = args
                    .first()
                    .and_then(|t| t.parse().ok())
                    .ok_or("cache <node> <$N>")?;
                let cap = self.cap(args.get(1).ok_or("cache <node> <$N>")?)?;
                self.cluster
                    .node(node)
                    .cache_replica(cap)
                    .map_err(|e| e.to_string())?;
                Ok(format!("replica cached on node {node}"))
            }
            "info" => {
                let cap = self.cap(args.first().ok_or("info <$N>")?)?;
                for i in 0..NODES {
                    if let Some(info) = self.cluster.node(i).object_info(cap.name()) {
                        return Ok(format!("on node {i}: {info:#?}"));
                    }
                }
                Ok("not active on any node (passive or destroyed)".into())
            }
            "ls" => {
                let node: usize = args
                    .first()
                    .and_then(|t| t.parse().ok())
                    .ok_or("ls <node>")?;
                let mut out = String::new();
                for name in self.cluster.node(node).active_objects() {
                    let info = self.cluster.node(node).object_info(name);
                    let type_name = info.map(|i| i.type_name).unwrap_or_default();
                    out.push_str(&format!("{name}  {type_name}\n"));
                }
                Ok(out.trim_end().to_string())
            }
            "vprocs" => {
                let node: usize = args
                    .first()
                    .and_then(|t| t.parse().ok())
                    .filter(|n| *n < NODES)
                    .ok_or(format!("vprocs <node>  (0..{})", NODES - 1))?;
                let s = self.cluster.node(node).vproc_stats();
                Ok(format!(
                    "workers    {} configured, {} live ({} idle, {} blocked), {} lent\n\
                     queue      {} of {} slots used\n\
                     lifetime   {} executed, {} rejected, {} spares spawned, {} panicked",
                    s.workers,
                    s.live,
                    s.idle,
                    s.blocked,
                    s.lent,
                    s.queued,
                    s.queue_cap,
                    s.executed,
                    s.rejected,
                    s.spares_spawned,
                    s.panicked,
                ))
            }
            "metrics" => {
                let node: usize = args
                    .first()
                    .and_then(|t| t.parse().ok())
                    .filter(|n| *n < NODES)
                    .ok_or(format!("metrics <node>  (0..{})", NODES - 1))?;
                let obs = self.cluster.node(node).obs();
                let mut out = String::new();
                let counters = obs.counters_snapshot();
                if !counters.is_empty() {
                    out.push_str("counters:\n");
                    for (name, v) in counters {
                        if v > 0 {
                            out.push_str(&format!("  {name:<40} {v}\n"));
                        }
                    }
                }
                let gauges = obs.gauges_snapshot();
                if !gauges.is_empty() {
                    out.push_str("gauges:\n");
                    for (name, v) in gauges {
                        out.push_str(&format!("  {name:<40} {v}\n"));
                    }
                }
                let hists = obs.histograms_snapshot();
                if !hists.is_empty() {
                    out.push_str("latency histograms (ns):\n");
                    for (name, h) in hists {
                        out.push_str(&format!("  {name:<40} {}\n", h.summary()));
                    }
                }
                Ok(out.trim_end().to_string())
            }
            "trace" => {
                let node: usize = args
                    .first()
                    .and_then(|t| t.parse().ok())
                    .filter(|n| *n < NODES)
                    .ok_or(format!("trace <node> [n]  (0..{})", NODES - 1))?;
                let n: usize = args.get(1).and_then(|t| t.parse().ok()).unwrap_or(16);
                let dump = self.cluster.node(node).obs().recorder().dump(n);
                if dump.is_empty() {
                    Ok("(flight recorder empty)".into())
                } else {
                    Ok(dump.trim_end().to_string())
                }
            }
            "members" => match args.first() {
                Some(t) => {
                    let n: usize = t
                        .parse()
                        .ok()
                        .filter(|n| *n < NODES)
                        .ok_or(format!("members [node]  (0..{})", NODES - 1))?;
                    let mut out = format!("node {n} gossip view:\n");
                    for (node, status, incarnation) in self.cluster.node(n).membership() {
                        out.push_str(&format!(
                            "  node {:<4} {:<8} incarnation {incarnation}\n",
                            node.0,
                            status.label(),
                        ));
                    }
                    Ok(out.trim_end().to_string())
                }
                None => {
                    let monitor = self.monitor_for("all")?;
                    let scrape = monitor.scrape_membership().map_err(|e| e.to_string())?;
                    let mut out = String::new();
                    for (observer, members) in &scrape.per_node {
                        out.push_str(&format!("node {observer} sees:\n"));
                        for m in members {
                            out.push_str(&format!(
                                "  node {:<4} {:<8} incarnation {}\n",
                                m.node, m.status, m.incarnation
                            ));
                        }
                    }
                    if !scrape.down.is_empty() {
                        out.push_str(&format!("unreachable: {:?}\n", scrape.down));
                    }
                    Ok(out.trim_end().to_string())
                }
            },
            "watchdog" => {
                let target = *args.first().ok_or("watchdog <node|all>")?;
                if target != "all" {
                    let n: usize = target
                        .parse()
                        .map_err(|_| "watchdog <node|all>".to_string())?;
                    if n >= NODES {
                        return Err(format!("no such node {n} (0..{})", NODES - 1));
                    }
                }
                let monitor = self.monitor_for(target)?;
                let scrape = monitor.scrape_watchdog().map_err(|e| e.to_string())?;
                let mut out = String::new();
                for row in &scrape.per_node {
                    out.push_str(&format!("node {:<4} stalls {}\n", row.node, row.stalls));
                    if row.snapshot.is_empty() {
                        out.push_str("  (no stall snapshot)\n");
                    } else {
                        for line in row.snapshot.lines() {
                            out.push_str(&format!("  {line}\n"));
                        }
                    }
                }
                if !scrape.down.is_empty() {
                    out.push_str(&format!("unreachable: {:?}\n", scrape.down));
                }
                Ok(out.trim_end().to_string())
            }
            "critpath" => {
                let token = args.first().ok_or("critpath <trace-id>")?;
                let trace_id: u64 = token
                    .strip_prefix("0x")
                    .map_or_else(|| token.parse().ok(), |h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad trace id '{token}'"))?;
                let monitor = self.monitor_for("all")?;
                match monitor.critical_path(trace_id).map_err(|e| e.to_string())? {
                    Some(cp) => Ok(cp.text_table().trim_end().to_string()),
                    None => Ok(format!(
                        "no spans for trace {trace_id} — was the invocation sampled?"
                    )),
                }
            }
            "export" => {
                let usage = "export <node|all> <prom|trace|events> [path]";
                let target = *args.first().ok_or(usage)?;
                let format = *args.get(1).ok_or(usage)?;
                if target != "all" {
                    let n: usize = target.parse().map_err(|_| usage.to_string())?;
                    if n >= NODES {
                        return Err(format!("no such node {n} (0..{})", NODES - 1));
                    }
                }
                if !matches!(format, "prom" | "trace" | "events") {
                    return Err(format!("unknown format '{format}' ({usage})"));
                }
                let monitor = self.monitor_for(target)?;
                let (text, default_path) = match format {
                    "prom" => (
                        monitor.prometheus().map_err(|e| e.to_string())?,
                        format!("eden-{target}.prom"),
                    ),
                    "trace" => (
                        monitor.chrome_trace(None).map_err(|e| e.to_string())?,
                        format!("eden-{target}.trace.json"),
                    ),
                    _ => (
                        monitor.events_jsonl().map_err(|e| e.to_string())?,
                        format!("eden-{target}.jsonl"),
                    ),
                };
                let path = args.get(2).map_or(default_path, |p| p.to_string());
                std::fs::write(&path, &text).map_err(|e| format!("write {path}: {e}"))?;
                Ok(format!("wrote {} bytes to {path}", text.len()))
            }
            "label" => {
                let name = args.first().ok_or("label <name> <$N>")?;
                let idx: usize = args
                    .get(1)
                    .and_then(|t| t.strip_prefix('$'))
                    .and_then(|t| t.parse().ok())
                    .ok_or("label <name> <$N>")?;
                self.labels.insert(name.to_string(), idx);
                Ok(format!("{name} -> ${idx}"))
            }
            other => Err(format!("unknown command '{other}' (try 'help')")),
        }
    }
}

fn main() {
    let cluster = with_apps(Cluster::builder().nodes(NODES)).build();
    println!("eden shell — {NODES} nodes up; 'help' for commands, 'quit' to exit");
    let mut shell = Shell {
        cluster,
        caps: Vec::new(),
        labels: HashMap::new(),
        monitors: HashMap::new(),
    };
    let stdin = std::io::stdin();
    loop {
        print!("eden> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match shell.exec(line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(e) => println!("error: {e}"),
        }
    }
    shell.cluster.shutdown();
    println!("bye");
}
